// Command nvmcheck runs the repo's static-analysis suite: six
// per-package analyzers that enforce the NVM crash-consistency
// discipline, the concurrency discipline around it, and the
// network-protocol hygiene rules at compile time — plus, with
// -wholeprogram, two whole-program analyzers (protocheck,
// recoverycheck) that verify the cross-package 2PC barrier protocol and
// commit/recovery symmetry over the module-wide resolved callgraph.
//
// Usage:
//
//	go run ./cmd/nvmcheck [-l] [-wholeprogram] [-tags list] [-stats]
//	    [-selfcheck] [-json] [-baseline file] [-budget d] [packages]
//
// With no arguments it checks ./... . Diagnostics print one per line as
// file:line:col: message [analyzer], sorted by (file, line, analyzer,
// message) so output and baselines are byte-stable across runs and
// package-load orders; the exit status is 1 when any diagnostic
// survives suppression filtering. Suppress a finding with a reasoned
// comment on (or directly above) the reported line:
//
//	//nvmcheck:ignore <analyzer> <reason>
//
// publishcheck additionally honors a function-level
// //nvm:nopersist <reason> annotation for functions whose contract is
// that the caller persists, and reports the annotation itself when it
// proves the annotation has no effect.
//
// -tags passes build constraints through to the loader, so the
// crosscheck harness can analyze the deliberately broken protocol
// variants gated behind the crosscheck_* tags.
//
// -json prints the surviving findings as a JSON array of
// {analyzer, file, line, col, message} objects with repo-relative
// paths, suitable for committing as a baseline. -baseline <file> loads
// such an array and reports (and fails on) only findings not in it, so
// CI can gate on *new* findings while a known set is being worked down.
//
// -stats prints a per-analyzer table of raised findings, reasoned
// suppressions and wall-clock, the points-to layer's resolution
// metrics, and (under -wholeprogram) the callgraph size — so
// suppression debt, analysis blind spots and the analysis-time budget
// all stay visible. -budget fails the run when loading plus analysis
// exceeds the given duration (CI uses 5m for the whole-program step).
//
// -selfcheck scans every package — including the analysis framework,
// which the regular run exempts — for suppression comments lacking the
// mandatory reason or naming no analyzer of the suite, and verifies the
// points-to layer's dynamic call-site resolution rate against a
// regression floor; either failure fails the build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hyrisenv/internal/analysis"
	"hyrisenv/internal/analysis/deadlinecheck"
	"hyrisenv/internal/analysis/lockcheck"
	"hyrisenv/internal/analysis/pptrcheck"
	"hyrisenv/internal/analysis/protocheck"
	"hyrisenv/internal/analysis/ptr"
	"hyrisenv/internal/analysis/publishcheck"
	"hyrisenv/internal/analysis/recoverycheck"
	"hyrisenv/internal/analysis/sharecheck"
	"hyrisenv/internal/analysis/wirecodecheck"
)

// Suite is the per-package analyzer suite, in the order findings are
// most useful to read: durability first, then concurrency, then
// aliasing, then protocol.
var Suite = []*analysis.Analyzer{
	publishcheck.Analyzer,
	lockcheck.Analyzer,
	sharecheck.Analyzer,
	pptrcheck.Analyzer,
	wirecodecheck.Analyzer,
	deadlinecheck.Analyzer,
}

// ProgSuite is the whole-program suite, run only under -wholeprogram:
// these analyzers see every loaded package at once through the
// module-wide resolved callgraph.
var ProgSuite = []*analysis.ProgramAnalyzer{
	protocheck.Analyzer,
	recoverycheck.Analyzer,
}

// minResolutionRate is the -selfcheck regression floor for the
// points-to layer's dynamic call-site resolution. The whole-program
// analyzers' callgraph edges come from this resolution, so a silent
// drop would quietly blind protocheck/recoverycheck to dynamic calls;
// the floor pins the measured rate (354/432 ≈ 0.82 at the time it was
// set) with headroom for benign churn. It is only enforced when the
// run covers enough call sites to make the ratio meaningful.
const (
	minResolutionRate  = 0.78
	minResolutionSites = 100
)

// A finding is the JSON form of one diagnostic, with a repo-relative
// path so baselines commit cleanly.
type finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (f finding) key() string {
	return fmt.Sprintf("%s\x00%s\x00%d\x00%s", f.Analyzer, f.File, f.Line, f.Message)
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.File, f.Line, f.Col, f.Message, f.Analyzer)
}

func main() {
	list := flag.Bool("l", false, "list the analyzers in the suite and exit")
	whole := flag.Bool("wholeprogram", false, "additionally run the whole-program analyzers (protocheck, recoverycheck) over the module-wide callgraph")
	tags := flag.String("tags", "", "comma-separated build tags passed to the package loader")
	stats := flag.Bool("stats", false, "print per-analyzer finding/suppression/wall-clock counts and points-to resolution metrics")
	selfcheck := flag.Bool("selfcheck", false, "fail on //nvmcheck:ignore comments anywhere that lack a reason or name no analyzer of the suite, and on a points-to resolution-rate regression")
	jsonOut := flag.Bool("json", false, "print findings as JSON (repo-relative paths)")
	baseline := flag.String("baseline", "", "JSON findings file; only findings not in it are reported and fail the run")
	budget := flag.Duration("budget", 0, "fail if loading plus analysis exceeds this duration (0 disables)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: nvmcheck [-l] [-wholeprogram] [-tags list] [-stats] [-selfcheck] [-json] [-baseline file] [-budget d] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range Suite {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		for _, a := range ProgSuite {
			fmt.Printf("%-14s [whole-program] %s\n", a.Name, a.Doc)
		}
		return
	}

	start := time.Now()
	patterns := flag.Args()
	var loadTags []string
	if *tags != "" {
		loadTags = strings.Split(*tags, ",")
	}
	pkgs, err := analysis.LoadTags("", loadTags, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvmcheck:", err)
		os.Exit(2)
	}

	// The analysis framework and its fixtures exercise the rules
	// deliberately; checking them would flag the fixture bugs.
	var targets []*analysis.Package
	for _, p := range pkgs {
		if isAnalysisPath(p.PkgPath) {
			continue
		}
		targets = append(targets, p)
	}

	if *selfcheck {
		diags := suppressionErrors(pkgs)
		for _, d := range diags {
			fmt.Println(d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(os.Stderr, "nvmcheck: %d malformed suppression(s)\n", len(diags))
			os.Exit(1)
		}
		ps := ptrStats(targets)
		if ps.CallSites >= minResolutionSites {
			rate := float64(ps.Resolved) / float64(ps.CallSites)
			if rate < minResolutionRate {
				fmt.Fprintf(os.Stderr,
					"nvmcheck: points-to resolution regressed: %d/%d dynamic call sites (%.1f%%) below the %.0f%% floor — the whole-program callgraph is losing edges\n",
					ps.Resolved, ps.CallSites, 100*rate, 100*minResolutionRate)
				os.Exit(1)
			}
			fmt.Printf("points-to resolution: %d/%d call sites (%.1f%%, floor %.0f%%)\n",
				ps.Resolved, ps.CallSites, 100*rate, 100*minResolutionRate)
		}
		return
	}

	res, err := analysis.RunDetailed(targets, Suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvmcheck:", err)
		os.Exit(2)
	}
	if *whole {
		progRes, err := analysis.RunProgram(analysis.NewProgram(targets), ProgSuite)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nvmcheck:", err)
			os.Exit(2)
		}
		res.Diags = append(res.Diags, progRes.Diags...)
		analysis.SortDiagnostics(res.Diags)
		for name, n := range progRes.Raw {
			res.Raw[name] = n
		}
		for name, n := range progRes.Suppressed {
			res.Suppressed[name] = n
		}
		for name, d := range progRes.Elapsed {
			res.Elapsed[name] = d
		}
	}
	elapsed := time.Since(start)

	wd, _ := os.Getwd()
	findings := make([]finding, 0, len(res.Diags))
	for _, d := range res.Diags {
		findings = append(findings, finding{
			Analyzer: d.Analyzer,
			File:     relFile(wd, d.Pos.Filename),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
		})
	}

	noun := "finding"
	if *baseline != "" {
		old, err := loadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nvmcheck:", err)
			os.Exit(2)
		}
		findings = subtract(findings, old)
		noun = "new finding"
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "nvmcheck:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}

	if *stats {
		fmt.Printf("%-14s %9s %10s %12s\n", "analyzer", "findings", "suppressed", "wall-clock")
		printRow := func(name string) {
			fmt.Printf("%-14s %9d %10d %12s\n",
				name, res.Raw[name], res.Suppressed[name],
				res.Elapsed[name].Round(time.Millisecond))
		}
		for _, a := range Suite {
			printRow(a.Name)
		}
		if *whole {
			for _, a := range ProgSuite {
				printRow(a.Name)
			}
		}
		ps := ptrStats(targets)
		fmt.Printf("points-to: %d/%d dynamic call sites resolved, %d allocation sites (%d NVM, %d volatile)\n",
			ps.Resolved, ps.CallSites, ps.AllocSites, ps.NVMAlloc, ps.Volatile)
		fmt.Printf("total: %d package(s) loaded and analyzed in %s\n",
			len(targets), elapsed.Round(time.Millisecond))
	}
	if *budget > 0 && elapsed > *budget {
		fmt.Fprintf(os.Stderr, "nvmcheck: analysis took %s, over the %s budget\n",
			elapsed.Round(time.Millisecond), *budget)
		os.Exit(1)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "nvmcheck: %d %s(s)\n", len(findings), noun)
		os.Exit(1)
	}
}

// suppressionErrors lists the //nvmcheck:ignore comments of pkgs that
// lack a reason or name an analyzer outside Suite and ProgSuite.
func suppressionErrors(pkgs []*analysis.Package) []analysis.Diagnostic {
	known := map[string]bool{}
	for _, a := range Suite {
		known[a.Name] = true
	}
	for _, a := range ProgSuite {
		known[a.Name] = true
	}
	return analysis.SuppressionErrors(pkgs, known)
}

// ptrStats aggregates the points-to layer's metrics over the target
// packages.
func ptrStats(targets []*analysis.Package) ptr.Stats {
	var ps ptr.Stats
	for _, p := range targets {
		s := ptr.For(p).Stats()
		ps.CallSites += s.CallSites
		ps.Resolved += s.Resolved
		ps.Unresolved += s.Unresolved
		ps.AllocSites += s.AllocSites
		ps.NVMAlloc += s.NVMAlloc
		ps.Volatile += s.Volatile
	}
	return ps
}

// relFile makes filename repo-relative when it lies under the working
// directory, so baselines are stable across checkouts.
func relFile(wd, filename string) string {
	if wd == "" {
		return filename
	}
	if rel, err := filepath.Rel(wd, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filename
}

// loadBaseline reads a -json findings file.
func loadBaseline(path string) ([]finding, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var fs []finding
	if err := json.Unmarshal(data, &fs); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return fs, nil
}

// subtract removes baseline findings from cur, multiset-style: two
// identical findings in cur survive a baseline that lists one.
func subtract(cur, baseline []finding) []finding {
	have := map[string]int{}
	for _, f := range baseline {
		have[f.key()]++
	}
	out := cur[:0:0]
	for _, f := range cur {
		if have[f.key()] > 0 {
			have[f.key()]--
			continue
		}
		out = append(out, f)
	}
	return out
}

// isAnalysisPath reports whether pkgPath belongs to the analysis suite
// itself (framework, analyzers, or this command).
func isAnalysisPath(pkgPath string) bool {
	const (
		pkg = "hyrisenv/internal/analysis"
		cmd = "hyrisenv/cmd/nvmcheck"
	)
	return pkgPath == pkg || pkgPath == cmd ||
		len(pkgPath) > len(pkg) && pkgPath[:len(pkg)+1] == pkg+"/"
}
