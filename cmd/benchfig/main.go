// Command benchfig regenerates the paper's evaluation results.
//
// Figures (modelled curves over the simulated fabrics):
//
//	benchfig -fig 10        # transfer time, Fast Ethernet  (Fig. 10)
//	benchfig -fig 11        # throughput,   Fast Ethernet   (Fig. 11)
//	benchfig -fig 12 / 13   # Gigabit Ethernet              (Figs. 12-13)
//	benchfig -fig 14 / 15   # Myrinet                       (Figs. 14-15)
//	benchfig -all           # everything, figures and experiments
//
// Live experiments (run against this repository's real code):
//
//	benchfig -exp VA               # §V-A ANY_SOURCE overlap matmul
//	benchfig -exp many-recv        # §VI 650 simultaneous receives
//	benchfig -exp pingpong-method  # §V modified ping-pong technique
//	benchfig -exp live-pingpong    # in-process niodev ping-pong sweep
//	benchfig -exp live-pingpong -fabric gige   # ... over an emulated fabric
//	benchfig -exp qualitative      # the §II feature comparison table
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"text/tabwriter"

	"mpj/internal/expt"
	"mpj/internal/netsim"
	"mpj/internal/perfmodel"
	"mpj/internal/transport"
	"mpj/internal/xdev"
)

func main() {
	figID := flag.Int("fig", 0, "figure to regenerate (10-15)")
	svgPath := flag.String("svg", "", "also write the figure as an SVG chart to this path")
	exp := flag.String("exp", "", "experiment: VA, many-recv, pingpong-method, live-pingpong, qualitative")
	all := flag.Bool("all", false, "regenerate every figure and experiment")
	matrixN := flag.Int("matrix", 600, "matrix dimension for -exp VA (paper: 3000)")
	msgs := flag.Int("msgs", 100, "message count for -exp VA")
	fabric := flag.String("fabric", "", "emulated fabric for -exp live-pingpong: fast, gige, mx (default: raw in-memory)")
	flag.Parse()

	switch {
	case *all:
		for id := 10; id <= 15; id++ {
			printFigure(id)
			fmt.Println()
		}
		runExperiment("VA", *matrixN, *msgs, "")
		runExperiment("many-recv", 0, 0, "")
		runExperiment("pingpong-method", 0, 0, "")
		runExperiment("qualitative", 0, 0, "")
		runExperiment("live-pingpong", 0, 0, *fabric)
	case *figID != 0:
		printFigure(*figID)
		if *svgPath != "" {
			fig, err := perfmodel.FigureByID(*figID)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchfig:", err)
				os.Exit(1)
			}
			if err := os.WriteFile(*svgPath, []byte(fig.SVG()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "benchfig:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *svgPath)
		}
	case *exp != "":
		runExperiment(*exp, *matrixN, *msgs, *fabric)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func printFigure(id int) {
	fig, err := perfmodel.FigureByID(id)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchfig:", err)
		os.Exit(1)
	}
	unit := "time (us)"
	if fig.Kind == perfmodel.Throughput {
		unit = "bandwidth (Mbps)"
	}
	fmt.Printf("Figure %d: %s — %s, %s\n", fig.ID, fig.Title, fig.Fabric.Name, unit)

	curves := fig.Generate()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "bytes")
	for _, s := range fig.Series {
		fmt.Fprintf(w, "\t%s", s.Name)
	}
	fmt.Fprintln(w)
	for i, size := range fig.Sizes {
		fmt.Fprintf(w, "%d", size)
		for _, s := range fig.Series {
			fmt.Fprintf(w, "\t%.1f", curves[s.Name][i].Value)
		}
		fmt.Fprintln(w)
	}
	w.Flush()
}

func runExperiment(name string, matrixN, msgs int, fabric string) {
	switch name {
	case "VA":
		fmt.Printf("§V-A ANY_SOURCE overlap: %d pending wildcard receives during a %dx%d matmul\n",
			msgs, matrixN, matrixN)
		mpjRes, err := expt.AnySourceOverlap("mpj", matrixN, msgs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchfig:", err)
			os.Exit(1)
		}
		ibis, err := expt.AnySourceOverlap("ibis", matrixN, msgs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchfig:", err)
			os.Exit(1)
		}
		fmt.Printf("  MPJ Express (peek-based, no polling):   matmul %v\n", mpjRes.Compute)
		fmt.Printf("  Ibis-style (sleep-polling workers):     matmul %v\n", ibis.Compute)
		speedup := float64(ibis.Compute-mpjRes.Compute) / float64(ibis.Compute) * 100
		fmt.Printf("  matmul faster under MPJ Express by %.1f%% (paper reports 11%%)\n", speedup)

	case "many-recv":
		fmt.Println("§VI simultaneous non-blocking receives (paper: MPJ/Ibis dies at ~650)")
		posted, postErr, err := expt.ManyPendingReceives("mpj", 650)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchfig:", err)
			os.Exit(1)
		}
		fmt.Printf("  MPJ Express: posted %d/650, error: %v\n", posted, postErr)
		posted, postErr, err = expt.ManyPendingReceives("ibis", 650)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchfig:", err)
			os.Exit(1)
		}
		fmt.Printf("  Ibis-style:  posted %d/650, error: %v\n", posted, postErr)

	case "pingpong-method":
		fmt.Println("§V measurement methodology: 64 us NIC-driver polling vs the modified ping-pong")
		rng := rand.New(rand.NewSource(1))
		const owUS = 80.0
		fmt.Printf("  true one-way time: %.1f us, driver polling interval: 64 us\n", owUS)
		for _, mode := range []struct {
			name   string
			random bool
		}{{"conventional ping-pong", false}, {"modified (random receiver delay)", true}} {
			lo, hi := 1e18, -1e18
			for run := 0; run < 20; run++ {
				r := netsim.PingPong(owUS, 64, 200, mode.random, rng)
				if r.MeanUS < lo {
					lo = r.MeanUS
				}
				if r.MeanUS > hi {
					hi = r.MeanUS
				}
			}
			fmt.Printf("  %-34s measured one-way mean across runs: %.1f .. %.1f us (spread %.1f)\n",
				mode.name+":", lo, hi, hi-lo)
		}

	case "qualitative":
		// The feature comparison the paper develops in §II and §V-A:
		// the three maintained Java messaging systems of 2006, plus
		// this reproduction's status for each row.
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "feature\tmpijava\tMPJ/Ibis\tMPJ Express\tthis repo")
		rows := [][5]string{
			{"thread-safe communication", "no (JNI/native MPI)", "no", "yes (MPI_THREAD_MULTIPLE)", "yes (goroutine-safe)"},
			{"bootstrapping runtime", "native MPI's", "SSH scripts", "daemon + mpjrun", "daemon + mpjrun (+HTTP loader)"},
			{"derived datatypes", "full (native)", "contiguous only", "full", "full (incl. struct)"},
			{"virtual topologies", "full (native)", "no", "yes", "yes (cart + graph)"},
			{"intercommunicators", "full (native)", "no", "yes", "yes"},
			{"pure-Java/pure-Go option", "no", "yes (TCPIbis/NIOIbis)", "yes (niodev)", "yes (niodev)"},
			{"specialized HW option", "via native MPI", "net.gm (Myrinet)", "mxdev (MX)", "mxdev (simulated MX)"},
			{"unbounded pending Irecv", "n/a", "no (~650 thread limit)", "yes", "yes"},
		}
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\n", r[0], r[1], r[2], r[3], r[4])
		}
		w.Flush()

	case "live-pingpong":
		var tr xdev.Transport = transport.NewInProc(256 << 10)
		over := "raw in-memory transport"
		if fabric != "" {
			f, err := netsim.FabricByName(fabric)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchfig:", err)
				os.Exit(2)
			}
			tr = transport.NewShaped(f.SocketBufBytes, f.LatencyUS*1e-6, f.BytesPerSecond())
			over = "emulated " + f.Name
		}
		fmt.Printf("Live in-process niodev ping-pong over %s (this implementation's real software path)\n", over)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "bytes\thalf-RTT\tMbps\tprotocol")
		for _, size := range []int{1, 64, 1 << 10, 16 << 10, 128 << 10, 1 << 20, 4 << 20} {
			reps := 200
			if size >= 1<<20 {
				reps = 20
			}
			res, err := expt.PingPongLive(tr, size, reps, 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchfig:", err)
				os.Exit(1)
			}
			proto := "eager"
			if size > 128<<10 {
				proto = "rendezvous"
			}
			fmt.Fprintf(w, "%d\t%v\t%.0f\t%s\n", size, res.HalfRTT, res.Bandwidth, proto)
		}
		w.Flush()

	default:
		fmt.Fprintf(os.Stderr, "benchfig: unknown experiment %q\n", name)
		os.Exit(2)
	}
}
