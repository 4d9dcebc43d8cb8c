// Package ckpt implements coordinated checkpoint/restart for MPJ
// jobs: the fault-tolerance companion of the ULFM operations in
// internal/core. Checkpoint is collective — it barriers the
// communicator so no message is in flight, writes each rank's
// application state to its own CRC-protected snapshot file, barriers
// again, and then rank 0 publishes a job manifest; a checkpoint
// exists only once its manifest does, so a crash mid-checkpoint
// leaves the previous checkpoint intact rather than a torn one. Every
// file lands via a temp-file rename, so readers never observe partial
// writes.
//
// Restore is the other half: after a failure the survivors Shrink the
// damaged communicator and each reloads state from the last
// checkpoint. Ranks are remapped by process identity
// (Group.TranslateRanks), so a survivor recovers its own old state no
// matter how its rank number changed; the snapshots of dead ranks are
// dealt out round-robin (old rank mod new size) so the shrunken job
// can redistribute the lost work.
package ckpt

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mpj/internal/core"
)

// magic identifies a rank snapshot file.
var magic = [4]byte{'M', 'P', 'J', 'C'}

// version is the snapshot file format version.
const version = 1

// headerLen is the fixed-size snapshot header: magic, version, rank,
// region count, payload length, payload CRC, header CRC.
const headerLen = 4 + 4 + 4 + 4 + 8 + 4 + 4

// crcTab is the Castagnoli table, matching niodev's wire CRC.
var crcTab = crc32.MakeTable(crc32.Castagnoli)

// manifestName is the per-checkpoint manifest file.
const manifestName = "MANIFEST.json"

// Region is one named piece of rank-local application state included
// in a snapshot.
type Region struct {
	Name string
	Data []byte
}

// Snapshot is one rank's restored state.
type Snapshot struct {
	// Rank is the rank that wrote the snapshot, in the checkpointing
	// communicator's numbering.
	Rank int
	// Regions maps region names to their restored bytes.
	Regions map[string][]byte
}

// Manifest describes a completed coordinated checkpoint. It is
// written by rank 0 only after every rank's snapshot file is durable,
// so its presence certifies the checkpoint.
type Manifest struct {
	// ID is the caller-chosen checkpoint identifier.
	ID string `json:"id"`
	// Size is the number of ranks that participated.
	Size int `json:"size"`
	// Files lists the per-rank snapshot file names, rank order.
	Files []string `json:"files"`
	// CreatedUnixNano is the manifest's creation time.
	CreatedUnixNano int64 `json:"createdUnixNano"`
}

// rankFile returns the snapshot file name for a rank.
func rankFile(rank int) string { return fmt.Sprintf("rank-%d.ckpt", rank) }

// ckptDir returns the directory of one checkpoint.
func ckptDir(dir, id string) string { return filepath.Join(dir, id) }

// atomicWrite writes data to path via a temp file and rename.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// encode serializes one rank's regions into the snapshot format.
func encode(rank int, regions []Region) ([]byte, error) {
	var payload []byte
	for _, r := range regions {
		if len(r.Name) > 1<<16 {
			return nil, fmt.Errorf("ckpt: region name %q too long", r.Name[:32])
		}
		var u32 [4]byte
		binary.LittleEndian.PutUint32(u32[:], uint32(len(r.Name)))
		payload = append(payload, u32[:]...)
		payload = append(payload, r.Name...)
		var u64 [8]byte
		binary.LittleEndian.PutUint64(u64[:], uint64(len(r.Data)))
		payload = append(payload, u64[:]...)
		payload = append(payload, r.Data...)
	}
	out := make([]byte, headerLen, headerLen+len(payload))
	copy(out[0:4], magic[:])
	binary.LittleEndian.PutUint32(out[4:8], version)
	binary.LittleEndian.PutUint32(out[8:12], uint32(rank))
	binary.LittleEndian.PutUint32(out[12:16], uint32(len(regions)))
	binary.LittleEndian.PutUint64(out[16:24], uint64(len(payload)))
	binary.LittleEndian.PutUint32(out[24:28], crc32.Checksum(payload, crcTab))
	binary.LittleEndian.PutUint32(out[28:32], crc32.Checksum(out[:28], crcTab))
	return append(out, payload...), nil
}

// decode parses and verifies one snapshot file.
func decode(name string, data []byte) (*Snapshot, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("ckpt: %s: truncated header (%d bytes)", name, len(data))
	}
	if [4]byte(data[0:4]) != magic {
		return nil, fmt.Errorf("ckpt: %s: bad magic", name)
	}
	if got := crc32.Checksum(data[:28], crcTab); got != binary.LittleEndian.Uint32(data[28:32]) {
		return nil, fmt.Errorf("ckpt: %s: header CRC mismatch", name)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != version {
		return nil, fmt.Errorf("ckpt: %s: unsupported version %d", name, v)
	}
	rank := int(binary.LittleEndian.Uint32(data[8:12]))
	nRegions := int(binary.LittleEndian.Uint32(data[12:16]))
	payLen := binary.LittleEndian.Uint64(data[16:24])
	payload := data[headerLen:]
	if uint64(len(payload)) != payLen {
		return nil, fmt.Errorf("ckpt: %s: payload length %d, header says %d", name, len(payload), payLen)
	}
	if got := crc32.Checksum(payload, crcTab); got != binary.LittleEndian.Uint32(data[24:28]) {
		return nil, fmt.Errorf("ckpt: %s: payload CRC mismatch", name)
	}
	snap := &Snapshot{Rank: rank, Regions: make(map[string][]byte, nRegions)}
	for i := 0; i < nRegions; i++ {
		if len(payload) < 4 {
			return nil, fmt.Errorf("ckpt: %s: truncated region %d", name, i)
		}
		nameLen := int(binary.LittleEndian.Uint32(payload[:4]))
		payload = payload[4:]
		if len(payload) < nameLen+8 {
			return nil, fmt.Errorf("ckpt: %s: truncated region %d name", name, i)
		}
		rname := string(payload[:nameLen])
		payload = payload[nameLen:]
		dataLen := binary.LittleEndian.Uint64(payload[:8])
		payload = payload[8:]
		if uint64(len(payload)) < dataLen {
			return nil, fmt.Errorf("ckpt: %s: truncated region %q data", name, rname)
		}
		snap.Regions[rname] = append([]byte(nil), payload[:dataLen]...)
		payload = payload[dataLen:]
	}
	return snap, nil
}

// Checkpoint takes a coordinated snapshot of the communicator: each
// rank's regions land in dir/<id>/rank-<r>.ckpt, and rank 0 publishes
// the manifest once every file is durable. Collective — barriers
// bracket the writes, so the snapshot is consistent: no message of
// the application is in flight across it. Checkpoint ids must be
// fresh; re-running an id overwrites it.
func Checkpoint(comm *core.Intracomm, dir, id string, regions ...Region) error {
	cdir := ckptDir(dir, id)
	if err := os.MkdirAll(cdir, 0o755); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	// Entry barrier: every rank has quiesced its application traffic
	// and sees the directory in place.
	if err := comm.Barrier(); err != nil {
		return fmt.Errorf("ckpt: entry barrier: %w", err)
	}
	data, err := encode(comm.Rank(), regions)
	if err != nil {
		return err
	}
	if err := atomicWrite(filepath.Join(cdir, rankFile(comm.Rank())), data); err != nil {
		return fmt.Errorf("ckpt: write snapshot: %w", err)
	}
	// Completion barrier: all snapshot files exist before the manifest
	// certifies them.
	if err := comm.Barrier(); err != nil {
		return fmt.Errorf("ckpt: completion barrier: %w", err)
	}
	if comm.Rank() == 0 {
		m := Manifest{ID: id, Size: comm.Size(), CreatedUnixNano: time.Now().UnixNano()}
		for r := 0; r < comm.Size(); r++ {
			m.Files = append(m.Files, rankFile(r))
		}
		data, err := json.MarshalIndent(&m, "", " ")
		if err != nil {
			return fmt.Errorf("ckpt: marshal manifest: %w", err)
		}
		if err := atomicWrite(filepath.Join(cdir, manifestName), data); err != nil {
			return fmt.Errorf("ckpt: write manifest: %w", err)
		}
	}
	// Exit barrier: when Checkpoint returns anywhere, the checkpoint is
	// published everywhere.
	if err := comm.Barrier(); err != nil {
		return fmt.Errorf("ckpt: exit barrier: %w", err)
	}
	return nil
}

// ReadManifest loads and validates a checkpoint's manifest.
func ReadManifest(dir, id string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(ckptDir(dir, id), manifestName))
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	m := new(Manifest)
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("ckpt: parse manifest: %w", err)
	}
	if m.Size <= 0 || len(m.Files) != m.Size {
		return nil, fmt.Errorf("ckpt: manifest %s: inconsistent (size %d, %d files)", id, m.Size, len(m.Files))
	}
	return m, nil
}

// Latest returns the id of the newest completed checkpoint under dir
// (by manifest creation time), or "" when none exists. Checkpoints
// without a manifest — interrupted mid-write — are ignored.
func Latest(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return "", nil
		}
		return "", fmt.Errorf("ckpt: %w", err)
	}
	type cand struct {
		id string
		at int64
	}
	var cands []cand
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		m, err := ReadManifest(dir, e.Name())
		if err != nil {
			continue
		}
		cands = append(cands, cand{id: m.ID, at: m.CreatedUnixNano})
	}
	if len(cands) == 0 {
		return "", nil
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].at < cands[j].at })
	return cands[len(cands)-1].id, nil
}

// Restore loads the snapshots this rank owns from checkpoint id: its
// own old state, located by process identity in old (the group of the
// communicator that took the checkpoint), plus any orphaned snapshots
// of dead ranks assigned to it (old rank mod new size). comm is the
// current — typically shrunken — communicator. The result maps old
// ranks to their snapshots; collective only in the sense that every
// rank should call it to cover all orphans.
func Restore(dir, id string, old *core.Group, comm *core.Intracomm) (map[int]*Snapshot, error) {
	m, err := ReadManifest(dir, id)
	if err != nil {
		return nil, err
	}
	if m.Size != old.Size() {
		return nil, fmt.Errorf("ckpt: checkpoint %s has %d ranks, old group has %d", id, m.Size, old.Size())
	}
	oldRanks := make([]int, old.Size())
	for r := range oldRanks {
		oldRanks[r] = r
	}
	// Map every old rank to its surviving new rank (core.Undefined for
	// the dead).
	newRanks, err := old.TranslateRanks(oldRanks, comm.Group())
	if err != nil {
		return nil, err
	}
	out := make(map[int]*Snapshot)
	for o, nr := range newRanks {
		owner := nr
		if owner == core.Undefined {
			owner = o % comm.Size() // orphan: deal dead ranks out round-robin
		}
		if owner != comm.Rank() {
			continue
		}
		path := filepath.Join(ckptDir(dir, id), rankFile(o))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("ckpt: %w", err)
		}
		snap, err := decode(rankFile(o), data)
		if err != nil {
			return nil, err
		}
		if snap.Rank != o {
			return nil, fmt.Errorf("ckpt: %s records rank %d, expected %d", rankFile(o), snap.Rank, o)
		}
		out[o] = snap
	}
	return out, nil
}
