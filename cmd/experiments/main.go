// Command experiments regenerates the paper's evaluation tables and
// figures (E1–E9, E12), the design-choice ablations (A1–A6) and the
// analytical recovery model validation (M1); see DESIGN.md for the
// index. Absolute numbers depend on the host; EXPERIMENTS.md records
// the expected shapes.
//
// Usage:
//
//	experiments [-run e1,a2,m1] [-full] [-ssd] [-out report.txt]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"hyrisenv/internal/bench"
	"hyrisenv/internal/disk"
)

func main() {
	log.SetFlags(0)
	run := flag.String("run", "all", "comma-separated experiment ids (e1..e9, e12, a1..a6, m1, net) or 'all'")
	full := flag.Bool("full", false, "use the larger FullScale sweeps")
	ssd := flag.Bool("ssd", false, "model a 2016-era SSD for the log device (default: raw file speed)")
	out := flag.String("out", "", "also write the report to this file")
	flag.Parse()

	scale := bench.QuickScale
	if *full {
		scale = bench.FullScale
	}
	model := disk.Model{}
	if *ssd {
		model = disk.SSD2016
	}

	selected := map[string]bool{}
	for _, id := range strings.Split(*run, ",") {
		selected[strings.ToLower(strings.TrimSpace(id))] = true
	}
	want := func(id string) bool { return selected["all"] || selected[strings.ToLower(id)] }

	workDir, err := os.MkdirTemp("", "hyrisenv-experiments-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(workDir)

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	fmt.Fprintf(w, "Hyrise-NV experiment suite (scale=%s, disk=%s)\n",
		map[bool]string{false: "quick", true: "full"}[*full],
		map[bool]string{false: "raw", true: "ssd2016"}[*ssd])

	type exp struct {
		id string
		fn func() (*bench.Report, error)
	}
	experiments := []exp{
		{"e1", func() (*bench.Report, error) { return bench.E1Recovery(workDir, scale.E1Sizes, model) }},
		{"e2", func() (*bench.Report, error) { return bench.E2Throughput(workDir, scale, model) }},
		{"e3", func() (*bench.Report, error) { return bench.E3LatencySweep(workDir, scale) }},
		{"e4", func() (*bench.Report, error) { return bench.E4InsertBreakdown(workDir, 5000) }},
		{"e5", func() (*bench.Report, error) { return bench.E5LogBreakdown(workDir, scale.E1Sizes, model) }},
		{"e6", func() (*bench.Report, error) { return bench.E6BarrierCounts(workDir) }},
		{"e7", func() (*bench.Report, error) { return bench.E7Merge(workDir, scale.E7Sizes) }},
		{"e8", func() (*bench.Report, error) { return bench.E8Scans(workDir, scale.E8Rows) }},
		{"e9", func() (*bench.Report, error) { return bench.E9ScanParallel(workDir, scale.E9Rows) }},
		{"e12", func() (*bench.Report, error) { return bench.E12Sharding(workDir, scale.E12Rows) }},
		{"a1", func() (*bench.Report, error) { return bench.A1GroupKeyIndex(workDir, scale.E8Rows) }},
		{"a2", func() (*bench.Report, error) { return bench.A2GroupCommit(workDir, 4000) }},
		{"a3", func() (*bench.Report, error) { return bench.A3Compression(workDir, scale.E8Rows) }},
		{"a4", func() (*bench.Report, error) { return bench.A4CommitBatching(workDir) }},
		{"a6", func() (*bench.Report, error) { return bench.A6CheckpointCompression(workDir, scale.E2Rows) }},
		{"m1", func() (*bench.Report, error) { return bench.M1RecoveryModel(workDir, scale.E1Sizes, model) }},
		{"net", func() (*bench.Report, error) { return bench.NetRestart(workDir, scale.E1Sizes, model) }},
	}
	for _, ex := range experiments {
		if !want(ex.id) {
			continue
		}
		rep, err := ex.fn()
		if err != nil {
			log.Fatalf("%s: %v", ex.id, err)
		}
		rep.Print(w)
	}
}
