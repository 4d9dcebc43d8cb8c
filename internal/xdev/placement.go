package xdev

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Node placement. A job's ranks are spread over nodes by the runtime
// (mpjrun assigns ranks to daemons round-robin); MPJ_NODE_MAP carries
// that placement to every rank so the device layer can route
// node-local traffic differently from inter-node traffic and the
// collective layer can build node-leader hierarchies.
//
// Two forms are accepted:
//
//   - per-rank list: "0,0,1,1" — entry i is rank i's node id;
//   - block form: "nodeA:2,nodeB:2" — name:count pairs, ranks assigned
//     to nodes block-wise in order.
//
// Either way the result is normalized to dense 0-based node ids in
// order of first appearance, so len(NodeOf) is the job size and
// max(NodeOf)+1 is the node count.

// ErrBadNodeMap is the typed parse failure every malformed
// MPJ_NODE_MAP surfaces (wrapped with the offending detail).
var ErrBadNodeMap = errors.New("xdev: malformed node map")

// ParseNodeMap parses an MPJ_NODE_MAP value into a slot->node-id
// slice of length size. The map is outside input, so a block count is
// checked against size before any rank is placed: a map placing more
// ranks than the job has fails at once, whatever its counts. size <= 0
// skips the length check for the per-rank list form, whose length its
// text bounds, and so rejects every block. An empty string returns
// (nil, nil): placement simply unknown.
func ParseNodeMap(s string, size int) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	entries := strings.Split(s, ",")
	block := strings.Contains(s, ":")
	// Normalize labels (numeric or named) to dense ids in order of
	// first appearance.
	ids := make(map[string]int)
	idOf := func(label string) int {
		id, ok := ids[label]
		if !ok {
			id = len(ids)
			ids[label] = id
		}
		return id
	}
	var nodeOf []int
	for i, e := range entries {
		e = strings.TrimSpace(e)
		if e == "" {
			return nil, fmt.Errorf("%w: empty entry at position %d in %q", ErrBadNodeMap, i, s)
		}
		if block {
			name, cntStr, ok := strings.Cut(e, ":")
			name = strings.TrimSpace(name)
			if !ok || name == "" {
				return nil, fmt.Errorf("%w: entry %q is not name:count", ErrBadNodeMap, e)
			}
			cnt, err := strconv.Atoi(strings.TrimSpace(cntStr))
			if err != nil || cnt <= 0 {
				return nil, fmt.Errorf("%w: entry %q has invalid count", ErrBadNodeMap, e)
			}
			if cnt > size-len(nodeOf) {
				return nil, fmt.Errorf("%w: %q places more ranks than the job's %d", ErrBadNodeMap, s, size)
			}
			id := idOf(name)
			for j := 0; j < cnt; j++ {
				nodeOf = append(nodeOf, id)
			}
		} else {
			if _, err := strconv.Atoi(e); err != nil {
				return nil, fmt.Errorf("%w: entry %q is not a node id (use name:count for named nodes)", ErrBadNodeMap, e)
			}
			nodeOf = append(nodeOf, idOf(e))
		}
	}
	if size > 0 && len(nodeOf) != size {
		return nil, fmt.Errorf("%w: %q places %d ranks, job has %d", ErrBadNodeMap, s, len(nodeOf), size)
	}
	return nodeOf, nil
}

// FormatNodeMap renders a slot->node-id slice back into the per-rank
// list form ParseNodeMap accepts — the form the runtime puts in each
// rank's environment.
func FormatNodeMap(nodeOf []int) string {
	if len(nodeOf) == 0 {
		return ""
	}
	parts := make([]string, len(nodeOf))
	for i, n := range nodeOf {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ",")
}

// NodeCount reports the number of distinct nodes in a dense placement
// (0 for unknown placement).
func NodeCount(nodeOf []int) int {
	maxID := -1
	for _, n := range nodeOf {
		if n > maxID {
			maxID = n
		}
	}
	return maxID + 1
}
