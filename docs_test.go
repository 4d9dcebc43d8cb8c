package mpj

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var envName = regexp.MustCompile(`MPJ_[A-Z_]+`)

// productEnvNames collects every MPJ_* name in a string literal of the
// non-test files of the module packages that mpj, mpjrun and mpjdaemon
// link.
func productEnvNames(t *testing.T) map[string]bool {
	t.Helper()
	out, err := exec.Command("go", "list", "-deps",
		"-f", `{{if not .Standard}}{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}{{end}}`,
		"mpj", "./cmd/mpjrun", "./cmd/mpjdaemon").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	names := make(map[string]bool)
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || (f[0] != "mpj" && !strings.HasPrefix(f[0], "mpj/")) {
			continue
		}
		for _, name := range f[2:] {
			file, err := parser.ParseFile(fset, filepath.Join(f[1], name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil {
						for _, m := range envName.FindAllString(s, -1) {
							names[m] = true
						}
					}
				}
				return true
			})
		}
	}
	return names
}

// readmeEnvRows maps each MPJ_* name in the first cell of README's
// environment table to whether its row is marked "tests only".
func readmeEnvRows(t *testing.T) map[string]bool {
	t.Helper()
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]bool)
	for _, line := range strings.Split(string(readme), "\n") {
		if !strings.HasPrefix(line, "| `MPJ_") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		testsOnly := strings.Contains(cells[2], "tests only")
		for _, m := range envName.FindAllString(cells[1], -1) {
			rows[m] = testsOnly
		}
	}
	return rows
}

// TestReadmeEnvTableMatchesProductKnobs: README's environment table
// documents every MPJ_* variable the product reads, and names none it
// does not, except rows marked "tests only".
func TestReadmeEnvTableMatchesProductKnobs(t *testing.T) {
	code := productEnvNames(t)
	rows := readmeEnvRows(t)
	if len(code) == 0 || len(rows) == 0 {
		t.Fatalf("found %d names in the code and %d README rows", len(code), len(rows))
	}
	var missing, stale []string
	for name := range code {
		if _, ok := rows[name]; !ok {
			missing = append(missing, name)
		}
	}
	for name, testsOnly := range rows {
		if !testsOnly && !code[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("the product reads %v, which README's environment table does not list", missing)
	}
	if len(stale) > 0 {
		t.Errorf("README's environment table lists %v, which the product does not read", stale)
	}
}
