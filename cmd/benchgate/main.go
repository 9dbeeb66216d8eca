// Command benchgate is the CI bench-regression gate: it compares
// `go test -bench` output for the tier-1 microbenchmarks against the
// checked-in BENCH_baseline.json and exits non-zero on a throughput
// regression beyond the tolerance or on any allocs/op increase.
//
//	go test -run '^$' -bench 'EngineSchedule|NetworkSend|SimulatorThroughput' \
//	    -benchmem -cpu 1 . | tee bench.txt
//	benchgate -baseline BENCH_baseline.json bench.txt   # gate
//	benchgate -baseline BENCH_baseline.json -update bench.txt  # refresh baseline
//
// With no file argument, benchmark output is read from stdin.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"safetynet/internal/benchcmp"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "checked-in baseline file")
		tolerance    = flag.Float64("tolerance", 0.15, "allowed fractional ns/op slowdown (0.15 = 15%)")
		update       = flag.Bool("update", false, "rewrite the baseline from the current results instead of gating")
	)
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			return 1
		}
		defer f.Close()
		in = f
	} else if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [flags] [bench-output-file]")
		return 1
	}

	results, err := benchcmp.ParseOutput(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		return 1
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark lines in input")
		return 1
	}

	if *update {
		note := "tier-1 microbenchmark baseline; regenerate with: " +
			"go test -run '^$' -bench 'EngineSchedule|NetworkSend|SimulatorThroughput' -benchmem -cpu 1 . | go run ./cmd/benchgate -update"
		enc, err := benchcmp.EncodeBaseline(note, results)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*baselinePath, enc, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			return 1
		}
		fmt.Printf("benchgate: wrote %s (%d benchmarks)\n", *baselinePath, len(results))
		return 0
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		return 1
	}
	baseline, err := benchcmp.ParseBaseline(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", *baselinePath, err)
		return 1
	}

	cs := benchcmp.Compare(baseline, results, *tolerance)
	fmt.Print(benchcmp.Render(cs))
	if fails := benchcmp.Failures(cs); len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d gate failure(s):\n", len(fails))
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		return 1
	}
	fmt.Println("benchgate: all benchmarks within tolerance")
	return 0
}
