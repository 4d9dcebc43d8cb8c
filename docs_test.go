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

// designTree returns the package tree in DESIGN.md §2: the fenced block
// after the "## 2." heading.
func designTree(t *testing.T) string {
	t.Helper()
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	s := string(design)
	i := strings.Index(s, "\n## 2.")
	if i < 0 {
		t.Fatal("DESIGN.md has no section 2")
	}
	s = s[i:]
	start := strings.Index(s, "```\n")
	if start < 0 {
		t.Fatal("DESIGN.md section 2 has no package tree")
	}
	s = s[start+4:]
	end := strings.Index(s, "```")
	if end < 0 {
		t.Fatal("DESIGN.md section 2's package tree is not closed")
	}
	return s[:end]
}

var treePath = regexp.MustCompile(`\binternal/[a-z0-9_/]+`)

// TestDesignTreeMatchesPackages: DESIGN.md §2's package tree names every
// internal package that has non-test Go files, and no path that does
// not exist.
func TestDesignTreeMatchesPackages(t *testing.T) {
	named := make(map[string]bool)
	for _, p := range treePath.FindAllString(designTree(t), -1) {
		named[p] = true
		if _, err := os.Stat(p); err != nil {
			t.Errorf("DESIGN.md §2 names %s, which does not exist", p)
		}
	}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		p := "internal/" + d.Name()
		files, err := filepath.Glob(filepath.Join(p, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		hasCode := false
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				hasCode = true
				break
			}
		}
		if hasCode && !named[p] {
			t.Errorf("DESIGN.md §2's package tree omits %s", p)
		}
	}
}
