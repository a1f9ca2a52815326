// Command experiments regenerates the paper's restart evidence: the
// restart sweep E1 (log-based vs NVM restart across dataset sizes, with
// the log restart's breakdown and the counts of work each restart did),
// the NVM write-latency sweep E3, the analytical recovery model M1
// calibrated on E1's samples, and the checkpoint-compression ablation
// A6; see DESIGN.md for the index. Absolute numbers depend on the host;
// EXPERIMENTS.md records the expected shapes.
//
// Usage:
//
//	experiments [-run e1,m1] [-full] [-ssd] [-out report.txt]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"hyrisenv/internal/bench"
	"hyrisenv/internal/disk"
)

func main() {
	log.SetFlags(0)
	run := flag.String("run", "all", "comma-separated experiment ids (e1, e3, m1, a6) or 'all'")
	full := flag.Bool("full", false, "use the larger FullScale sweeps")
	ssd := flag.Bool("ssd", false, "model a 2016-era SSD for the log device (default: raw file speed)")
	out := flag.String("out", "", "also write the report to this file")
	flag.Parse()

	experiments, err := bench.Select(*run)
	if err != nil {
		log.Fatal(err)
	}
	env := &bench.Env{Scale: bench.QuickScale}
	if *full {
		env.Scale = bench.FullScale
	}
	if *ssd {
		env.Disk = disk.SSD2016
	}

	env.Dir, err = os.MkdirTemp("", "hyrisenv-experiments-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(env.Dir)

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

	for _, ex := range experiments {
		rep, err := ex.Run(env)
		if err != nil {
			log.Fatalf("%s: %v", ex.ID, err)
		}
		rep.Print(w)
	}
}
