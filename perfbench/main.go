// Command perfbench is the repository's benchmark: the paper's Table 1
// verification overheads, measured in-process, and served sessions'
// submit-to-verdict latency and throughput through the network front.
// It reaches the program only through public functions:
// core.Runtime.Run, serve.Pool.Submit and Session.Wait, and
// front.Client.Submit and RemoteSession.Wait.
//
// Run it from the repository root (perfbench/run.sh builds it first):
//
//	perfbench --workload table1-block --seed 1 --seconds 25 --trace 0
//
// Workloads:
//
//   - table1-block: Sieve and Randomized, default scale. Blocking Gets
//     dominate, so the deadlock detector (Algorithm 2) does the most work.
//   - table1-spawn: SmithWaterman and Strassen, default scale. Task
//     creation and ownership transfer (Algorithm 1) dominate.
//   - serve-light: a mix of eight small programs plus Listing 1 (1 draw
//     in 8) through the front on loopback; closed loop, 2 connections with
//     one session in flight each, against 2 pool slots, so nothing queues.
//   - serve-saturated: the same, with 4 sessions in flight per connection,
//     so the admission queue never drains.
//
// Every workload has a verified arm and a baseline arm, run interleaved.
// On table1-* the verified arm is a Full-mode Runtime.Run and the
// baseline an Unverified one; each rep runs both back to back, order
// alternating, with a GC before each run. On serve-* the verified arm is
// the front and the baseline the same mix submitted straight to a
// serve.Pool, in half-second windows alternating between the two.
//
// Absolute times are scaled by a probe (probe.go): a fixed piece of
// goroutine and sequential work that the benchmark owns, run next to
// every rep and window. On a shared two-vCPU host, ten runs of the same
// code spread by up to 17% (quartile distance over median) in raw median
// time, and by 3% to 6% once scaled. A change to the program cannot move
// the probe, so a slower or faster program shows in the scaled times.
//
// End-to-end metrics (--trace 0):
//
//   - verified_ms: the verified arm's median time, scaled to the nominal
//     probe speed. table1-*: per program, the median over reps of the
//     Full run's time times nominal/rep probe, summed over programs.
//     serve-*: the median front latency, Client.Submit to verdict, each
//     window's latencies times nominal/window probe.
//   - verified_p90_ms: the same at the 90th percentile.
//   - time_overhead: verified over baseline median time. table1-*: the
//     geometric mean over programs of the median per-rep Full/Unverified
//     ratio (the paper's Table 1 overhead). serve-*: the geometric mean
//     over programs of front over pool-direct median latency, from
//     Client.Submit (Pool.Submit) to the verdict.
//   - tail_overhead: the same at the 90th percentile, per program the
//     ratio of the two arms' p90s.
//   - verified_alloc_mb: bytes allocated per verified result, from
//     runtime.MemStats.TotalAlloc with no floor (table1-*: per Full run,
//     summed over programs; serve-*: by the whole process per front
//     session).
//   - alloc_overhead: verified over baseline allocated bytes.
//   - setup_s: building inputs and sequential references and starting
//     the serving stack, scaled by the probe's sequential part; the
//     median of fifteen set-ups. The warm-up that follows is not timed.
//
// The raw times are printed too, with quartiles, p90, p99 and sample
// counts.
//
// Per-layer metrics (--trace 1) come from a traced run that measures
// every layer on the workload's programs: a core phase running each
// program in Unverified, Ownership and Full mode interleaved, a
// pool-direct phase and a front phase. Spans are recorded by this
// command around each public call and written out at exit.
//
// Metric names and units are read from BENCHMARK.json at the root; a
// run whose metrics differ from the ones declared there fails.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/workloads/sieve"
)

// layerMoves names, for each per-layer metric, the end-to-end metric it
// should move and on which workload.
var layerMoves = map[string]string{
	"core.ownership_ms":           "time_overhead on table1-spawn",
	"core.detect_ms":              "time_overhead on table1-block",
	"core.tasks":                  "verified_alloc_mb on table1-spawn",
	"core.gets":                   "time_overhead on table1-block",
	"core.sets":                   "time_overhead on table1-block",
	"core.ns_per_task":            "verified_ms on table1-spawn",
	"core.detect_ns_per_get":      "time_overhead on table1-block",
	"core.alloc_b_per_task":       "alloc_overhead on table1-spawn",
	"core.gc_cycles":              "verified_p90_ms on table1-block",
	"core.gc_pause_ms":            "verified_p90_ms on table1-block",
	"workloads.seq_ms":            "nothing: the sequential references do not use the runtime",
	"serve.submit_us_p50":         "verified_ms on serve-light",
	"serve.queue_ms_p50":          "verified_ms on serve-saturated (about 0 on serve-light)",
	"serve.queue_ms_p90":          "verified_p90_ms on serve-saturated",
	"serve.exec_ms_p50":           "verified_ms on serve-saturated",
	"serve.exec_ms_p90":           "verified_p90_ms on serve-saturated",
	"serve.direct_sessions_per_s": "verified_ms on serve-saturated",
	"serve.rejected":              "failed operations on serve-* (0 expected)",
	"serve.false_verdicts":        "failed operations on serve-* (0 expected)",
	"sched.steals_per_ksession":   "verified_ms on serve-saturated",
	"sched.wakes_per_ksession":    "verified_ms on serve-saturated",
	"sched.thieves_per_ksession":  "verified_ms on serve-saturated",
	"sched.workers_spawned":       "verified_ms on serve-saturated",
	"front.admit_ms_p50":          "time_overhead on serve-light",
	"front.verdict_ms_p50":        "time_overhead on serve-light",
	"front.overhead_ms_p50":       "time_overhead and verified_ms on serve-light",
	"bench.trace_overhead":        "nothing: traced over untraced time of the same run",
	"bench.probe_par_ms":          "nothing: the host's speed, which scales verified_ms",
	"bench.results_per_s":         "verified_ms on serve-saturated, as its raw, unscaled rate",
}

// workloadShapes lists the workloads with the closed-loop shape their
// served phases use.
var workloadShapes = map[string]shape{
	"table1-block":    {conns: 2, perConn: 1},
	"table1-spawn":    {conns: 2, perConn: 1},
	"serve-light":     {conns: 2, perConn: 1},
	"serve-saturated": {conns: 2, perConn: 4},
}

// setupReps is how many times an untraced run sets up; setup_s is the
// median.
const setupReps = 15

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// record is everything one run keeps, written to the run's record file.
type record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"commit"`
	LoadBefore string             `json:"loadavg_before"`
	LoadAfter  string             `json:"loadavg_after"`
	SetupS     []float64          `json:"setup_s"`        // raw
	SetupScale []float64          `json:"setup_s_scaled"` // at the nominal probe speed
	WarmUpS    float64            `json:"warm_up_s"`      // raw, not part of setup_s
	Dists      map[string]summary `json:"distributions"`
	SelfMs     map[string]float64 `json:"span_self_ms,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	Attempted  int                `json:"attempted"`
	Failures   []string           `json:"failures"`
}

func main() {
	root := flag.String("root", ".", "repository root; run records go under <root>/.bench_build/perfbench")
	workload := flag.String("workload", "", "table1-block, table1-spawn, serve-light or serve-saturated")
	seed := flag.Int64("seed", 1, "workload seed: program inputs, served draw order and Deadlock placement")
	seconds := flag.Float64("seconds", 25, "length of the measured window")
	traceFlag := flag.Int("trace", 0, "1 runs the traced, per-layer run")
	flag.Parse()
	if err := run(*root, *workload, *seed, *seconds, *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(root, workload string, seed int64, seconds float64, traced bool) error {
	sh, ok := workloadShapes[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	units, err := declaredUnits(filepath.Join(root, "BENCHMARK.json"), traced)
	if err != nil {
		return err
	}
	// A hung session or run must not outlive the run's time limit.
	watchdog := time.AfterFunc(time.Duration(seconds*float64(time.Second))+100*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time limit")
		os.Exit(2)
	})
	defer watchdog.Stop()

	rec := &record{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: commit(root), LoadBefore: loadavg(),
	}
	if err := selfTest(); err != nil {
		return err
	}
	d := time.Duration(seconds * float64(time.Second))
	reps := setupReps
	if traced {
		reps = 1
	}
	var env *environment
	for i := 0; i < reps; i++ {
		if env != nil {
			env.close()
		}
		runtime.GC()
		start := time.Now()
		if env, err = setup(workload, sh, seed, traced); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		raw := time.Since(start).Seconds()
		rec.SetupS = append(rec.SetupS, raw)
		rec.SetupScale = append(rec.SetupScale, probe().scaleSeq(raw))
	}
	defer env.close()
	start := time.Now()
	if err := env.warmUp(traced); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	rec.WarmUpS = time.Since(start).Seconds()

	var out *outcome
	switch {
	case traced:
		tr := newTracer()
		out = env.traced(d, tr)
		rec.SelfMs = tr.selfTimes()
		if err := writeFile(root, workload, seed, "spans", tr.write); err != nil {
			return err
		}
	case env.table1:
		out = env.pairedE2E(d)
	default:
		out = env.servedE2E(d)
	}
	if !traced {
		out.metrics["setup_s"] = median(rec.SetupScale)
	}
	if err := checkDeclared(out.metrics, units); err != nil {
		return err
	}
	for name, v := range out.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.failures = append(out.failures, fmt.Errorf("%s: no valid samples", name))
			out.metrics[name] = 0
		}
	}
	rec.LoadAfter = loadavg()
	rec.Dists, rec.Metrics, rec.Attempted = out.dists, out.metrics, out.attempted
	for _, err := range out.failures {
		rec.Failures = append(rec.Failures, err.Error())
	}
	kind := "record-trace0"
	if traced {
		kind = "record-trace1"
	}
	if err := writeFile(root, workload, seed, kind, func(path string) error {
		b, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, b, 0o644)
	}); err != nil {
		return err
	}
	report(os.Stdout, rec, out, units)
	return nil
}

// outcome is what a measurement phase hands back to run.
type outcome struct {
	metrics   map[string]float64
	dists     map[string]summary
	attempted int
	failures  []error
	notes     []string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, dists: map[string]summary{}}
}

// report prints the run's metadata, distributions and metrics by name
// with their units, then the result object as the last line.
func report(w io.Writer, rec *record, out *outcome, units map[string]string) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	fmt.Fprintf(bw, "# workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d go=%s commit=%s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.GOMAXPROCS, rec.GoVersion, rec.Commit)
	fmt.Fprintf(bw, "# loadavg before=%q after=%q setup_s raw=%v scaled=%v warm_up_s=%.3f\n",
		rec.LoadBefore, rec.LoadAfter, rec.SetupS, rec.SetupScale, rec.WarmUpS)
	for _, name := range sortedKeys(out.dists) {
		s := out.dists[name]
		fmt.Fprintf(bw, "# %-40s n=%-6d q1=%-10.4g p50=%-10.4g q3=%-10.4g p90=%-10.4g p99=%.4g\n",
			name, s.N, s.Q1, s.P50, s.Q3, s.P90, s.P99)
	}
	for _, name := range sortedKeys(rec.SelfMs) {
		fmt.Fprintf(bw, "# self time %-38s %.3f ms\n", name, rec.SelfMs[name])
	}
	res := resultLine{Attempted: out.attempted, Failed: len(out.failures), Metrics: map[string]metricOut{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, name := range sortedKeys(out.metrics) {
		v := out.metrics[name]
		if moves := layerMoves[name]; moves != "" {
			fmt.Fprintf(bw, "%-30s %14.6g %-6s moves %s\n", name, v, units[name], moves)
		} else {
			fmt.Fprintf(bw, "%-30s %14.6g %s\n", name, v, units[name])
		}
		res.Metrics[name] = metricOut{Value: v, Unit: units[name]}
	}
	for _, n := range out.notes {
		fmt.Fprintf(bw, "# note: %s\n", n)
	}
	for i, err := range out.failures {
		if i == 10 {
			fmt.Fprintf(bw, "# ... %d more failures\n", len(out.failures)-10)
			break
		}
		fmt.Fprintf(bw, "# FAILED: %v\n", err)
	}
	fmt.Fprintf(bw, "# attempted=%d failed=%d\n", res.Attempted, res.Failed)
	b, _ := json.Marshal(res) // plain numbers and strings: cannot fail
	fmt.Fprintln(bw, string(b))
}

// declaredUnits reads the metrics BENCHMARK.json declares for a run of
// this kind, end-to-end or per-layer, with their units.
func declaredUnits(path string, traced bool) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	units := map[string]string{}
	for _, m := range list {
		units[m.Name] = m.Unit
	}
	return units, nil
}

// checkDeclared fails unless the run computed exactly the declared
// metrics.
func checkDeclared(metrics map[string]float64, units map[string]string) error {
	for name := range metrics {
		if _, ok := units[name]; !ok {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	for name := range units {
		if _, ok := metrics[name]; !ok {
			return fmt.Errorf("metric %s declared in BENCHMARK.json was not measured", name)
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeFile hands write a path under <root>/.bench_build/perfbench.
func writeFile(root, workload string, seed int64, kind string, write func(string) error) error {
	dir := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", workload, seed, kind))
	if err := write(path); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unavailable"
	}
	return strings.TrimSpace(string(b))
}

// commit names the measured source: the VCS revision the binary was
// built from when the build recorded one and the tree had no local
// changes, else a digest of every Go source and module file under root,
// after the revision and "+dirty" when there is one.
func commit(root string) string {
	rev := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if rev != "" && !modified {
			return rev
		}
		if rev != "" {
			rev += "+dirty:"
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return rev + "unknown"
	}
	return rev + "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// selfTest proves, through the same counting paths the measurement uses,
// that a corrupted expected value and a wrong verdict each count as
// failed operations.
func selfTest() error {
	cfg := sieve.Small()
	bad := newProg("Sieve", func() uint64 { return sieve.RunSequential(cfg) + 1 },
		func(t *core.Task) (uint64, error) { return sieve.Run(t, cfg) })
	res := measurePaired([]*prog{bad}, []core.Mode{core.Unverified, core.Full}, 0, nil)
	if res.attempted == 0 || len(res.failures) != res.attempted {
		return fmt.Errorf("self-test: %d of %d runs against a corrupted reference counted as failed", len(res.failures), res.attempted)
	}
	var a armStats
	a.add(window{samples: []sample{{latMs: 1, err: checkVerdict("Deadlock", serve.VerdictClean, true)}}})
	if a.attempted != 1 || len(a.failures) != 1 {
		return errors.New("self-test: a wrong verdict was not counted as failed")
	}
	return nil
}
