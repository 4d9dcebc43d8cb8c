package mpj_test

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"

	"mpj/internal/mpjrt"
)

// TestExamplesRun executes every example end to end (via go run) and
// checks for its expected output — the examples are documentation and
// must stay runnable.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples skipped in -short mode")
	}
	ckdir := t.TempDir()
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"quickstart", []string{"run", "./examples/quickstart"}, "broadcast said"},
		{"pi", []string{"run", "./examples/pi", "-samples", "200000", "-np", "2"}, "pi ≈ 3.1"},
		{"nbody", []string{"run", "./examples/nbody", "-n", "128", "-steps", "3", "-np", "2"}, "kinetic energy"},
		{"heat", []string{"run", "./examples/heat", "-grid", "32", "-iters", "60", "-np", "4"}, "average plate temperature"},
		{"multithreaded", []string{"run", "./examples/multithreaded", "-goroutines", "3", "-msgs", "5"}, "MPI_THREAD_MULTIPLE verified"},
		// 48 divides evenly over both the 2x2 start grid and the 3x1
		// survivor grid after the kill.
		{"heat-recovery", []string{"run", "./examples/heat", "-grid", "48", "-iters", "80", "-np", "4",
			"-ckpt", ckdir, "-ckpt-every", "15", "-kill", "1", "-kill-iter", "25"},
			"survivors restored checkpoint"},
		{"pagerank", []string{"run", "./examples/pagerank", "-nodes", "600", "-iters", "40", "-np", "3"}, "pagerank mass 1.000"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			out, err := exec.Command("go", c.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("%v: %v\n%s", c.args, err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Fatalf("output missing %q:\n%s", c.want, out)
			}
		})
	}
}

// TestNbodyBenchDeterminism runs the nbody example's serial-vs-parallel
// comparison, which internally asserts bit-identical energies.
func TestNbodyBenchDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("examples skipped in -short mode")
	}
	out, err := exec.Command("go", "run", "./examples/nbody", "-bench", "-n", "96", "-steps", "3", "-np", "3").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "results identical") {
		t.Fatalf("determinism check missing:\n%s", out)
	}
}

// TestCommandsRun smoke-tests the command-line tools.
func TestCommandsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("commands skipped in -short mode")
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"benchfig-fig10", []string{"run", "./cmd/benchfig", "-fig", "10"}, "Figure 10"},
		{"benchfig-qualitative", []string{"run", "./cmd/benchfig", "-exp", "qualitative"}, "thread-safe communication"},
		{"benchfig-many-recv", []string{"run", "./cmd/benchfig", "-exp", "many-recv"}, "posted 650/650"},
		// Myrinet keeps the emulated sweep near 2 s; GigE takes twice that.
		{"benchfig-live-pingpong", []string{"run", "./cmd/benchfig", "-exp", "live-pingpong", "-fabric", "mx"}, "emulated Myrinet 2G"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			out, err := exec.Command("go", c.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("%v: %v\n%s", c.args, err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Fatalf("output missing %q:\n%s", c.want, out)
			}
		})
	}
}

// TestBenchfigSVG checks the chart renderer end to end.
func TestBenchfigSVG(t *testing.T) {
	if testing.Short() {
		t.Skip("commands skipped in -short mode")
	}
	path := t.TempDir() + "/fig13.svg"
	out, err := exec.Command("go", "run", "./cmd/benchfig", "-fig", "13", "-svg", path).CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") || !strings.Contains(string(data), "MPJ Express") {
		t.Fatalf("svg malformed: %.120s", data)
	}
}

// TestNbodyViaDaemon builds the nbody example and launches it as a
// real 3-process job through the runtime system (daemon + mpjrun
// logic) over loopback TCP — the full Fig. 9 path on a real workload.
func TestNbodyViaDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon job skipped in -short mode")
	}
	bin := t.TempDir() + "/nbody"
	if out, err := exec.Command("go", "build", "-o", bin, "./examples/nbody").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	d, err := mpjrt.NewDaemon("127.0.0.1:0", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var buf bytes.Buffer
	res, err := mpjrt.Run(mpjrt.Job{
		NP:       3,
		Daemons:  []string{d.Addr()},
		Program:  bin,
		Args:     []string{"-n", "192", "-steps", "3"},
		BasePort: 24831,
		Output:   &buf,
	})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	if res.Failed() {
		t.Fatalf("exit codes %v\n%s", res.ExitCodes, buf.String())
	}
	if !strings.Contains(buf.String(), "np=3: 192 particles, 3 steps, kinetic energy") {
		t.Fatalf("output: %s", buf.String())
	}
}
