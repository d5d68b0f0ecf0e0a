// Command perfbench is the DisCFS benchmark: it brings up an in-process
// server (`discfsd -write-behind -dedup` on the default mem backend) over
// loopback TCP, drives it with one seeded workload, checks every output,
// and prints every metric by name with its unit and sample count. The
// last line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is split into an untraced half and a traced half (timing shims
// between the storage layers, spans around client calls) and the
// metrics are the per-layer ones plus the tracing overhead. See
// README.md for the metric → layer → workload map.
//
//	go run . --workload bulk --seed 1 --seconds 15 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	quick    bool   // small inputs, for the package's own tests
	windows  int    // measured windows per run, each on a fresh set-up
	traceDir string // where a traced run writes its spans
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	var child bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: bulk, tree or onboard")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&seconds, "seconds", 15, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: per-layer traced run, 0: end-to-end run")
	flag.BoolVar(&child, "window", false, "run one window and print it as JSON (the command runs each window this way)")
	flag.Parse()
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.windows = 4
	cfg.traceDir = filepath.Join(".bench_build", "traces")
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q must be one of %v)\n", cfg.workload, workloadNames())
		os.Exit(2)
	}
	ctx := context.Background()
	if child {
		w, err := measure(ctx, cfg, cfg.seconds, cfg.trace)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(w)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	res, err := bench(ctx, cfg, os.Stdout, inChild)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// phase is one set-up plus one measured window on its own stack.
type phase struct {
	w      workload
	setup  time.Duration
	r      *runStats
	stored float64
	integ  integrity
	layers []metric // traced phase only
}

// runPhase builds a fresh stack, sets the workload up on it, runs it for
// d, then measures the store and runs the integrity gates.
func runPhase(ctx context.Context, cfg config, d time.Duration, tr *tracer) (*phase, error) {
	p := &phase{r: newRunStats()}
	t0 := time.Now()
	st, err := newStack(fmt.Sprintf("perfbench-admin-%d", cfg.seed), tr)
	if err != nil {
		return nil, err
	}
	defer st.close()
	w := workloads[cfg.workload](cfg.seed, cfg.quick)
	p.w = w
	err = w.setup(ctx, st)
	p.setup = time.Since(t0)
	if err != nil {
		w.teardown()
		return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
	}
	var before snapshot
	if tr != nil {
		tr.reset() // spans of the set-up are not the run's
		before = takeSnapshot(st)
	}
	err = w.run(ctx, st, tr, d, p.r)
	w.teardown()
	if err != nil {
		return nil, fmt.Errorf("%s run: %w", cfg.workload, err)
	}
	if tr != nil {
		p.layers = layerMetrics(before, takeSnapshot(st), tr, p.r)
	}
	if p.stored, err = st.storedPerLogical(w.liveBytes()); err != nil {
		return nil, err
	}
	if p.integ, err = st.check(); err != nil {
		return nil, err
	}
	return p, nil
}

// endToEnd are the metrics BENCHMARK.json gates, in its order, for one
// window.
func endToEnd(workload string, p *phase) []metric {
	r := p.r
	secs := r.elapsed.Seconds()
	done := float64(r.attempted.Load() - r.failed.Load())
	var samples dist
	for _, c := range latencyClass[workload] {
		samples = append(samples, r.samples(c)...)
	}
	lat := summarize(samples, 0.99)
	return []metric{
		{Name: "setup_s", Value: p.setup.Seconds(), Unit: "s", N: 1},
		{Name: "ops_per_s", Value: ratio(done, secs), Unit: "1/s", N: int(done)},
		{Name: "MBps", Value: ratio(float64(r.payload.Load())/1e6, secs), Unit: "MB/s", N: int(done)},
		{Name: "p50_ms", Value: ms(lat.P50), Unit: "ms", N: lat.N},
		{Name: "p99_ms", Value: ms(lat.Tail), Unit: "ms", N: lat.N, Note: fmt.Sprintf("p%.2f", 100*lat.TailQ)},
		{Name: "stored_per_logical", Value: p.stored, Unit: "ratio", Note: "FFS bytes in use / live file bytes"},
	}
}

// medianOf reduces per-window end-to-end metrics to their medians; N
// sums the windows' samples.
func medianOf(windows [][]metric) []metric {
	out := append([]metric(nil), windows[0]...)
	for i := range out {
		vals := make([]float64, len(windows))
		n := 0
		for w, ms := range windows {
			vals[w] = ms[i].Value
			n += ms[i].N
		}
		out[i].Value, out[i].N = median(vals), n
		out[i].Note = fmt.Sprintf("median of %d windows %s", len(windows), out[i].Note)
	}
	return out
}

// latencyClass names, per workload, the op whose latency p50_ms and
// p99_ms report. On bulk that is a whole cold download: the tail of its
// 1 MiB read calls swung by a third between runs with the host's CPU
// steal, and is printed in the detail table instead.
var latencyClass = map[string][]string{
	"bulk":    {"download"},
	"tree":    {"read", "write"},
	"onboard": {"onboard"},
}

// detail are the workload's own end-to-end figures, printed for the
// reader of the report and not gated.
func detail(workload string, p *phase) []metric {
	r := p.r
	var out []metric
	tail := func(prefix, class string) {
		s := summarize(r.samples(class), 0.99)
		out = append(out,
			metric{Name: prefix + "_p50_ms", Value: ms(s.P50), Unit: "ms", N: s.N},
			metric{Name: prefix + "_p99_ms", Value: ms(s.Tail), Unit: "ms", N: s.N, Note: fmt.Sprintf("p%.2f", 100*s.TailQ)})
	}
	rate := func(name, class string, bytes int) {
		var mbps []float64
		for _, d := range r.samples(class) {
			mbps = append(mbps, float64(bytes)/1e6/d.Seconds())
		}
		out = append(out, metric{Name: name, Value: median(mbps), Unit: "MB/s", N: len(mbps), Note: "median over files"})
	}
	switch workload {
	case "bulk":
		size := p.w.(*bulk).fileSize
		rate("upload_MBps", "upload", size)
		rate("download_MBps", "download", size)
		tail("write_call", "write_call")
		tail("read_call", "read_call")
	case "tree":
		tail("read", "read")
		tail("write", "write")
	case "onboard":
		tail("onboard", "onboard")
	}
	return out
}

// window is one measured window as the report sees it: one fresh stack,
// one set-up, one run, its checks.
type window struct {
	Attempted   int64    `json:"attempted"`
	Failed      int64    `json:"failed"`
	IntegrityOK bool     `json:"integrity_ok"`
	Integrity   string   `json:"integrity"`
	Errors      []string `json:"errors,omitempty"`
	E2E         []metric `json:"e2e"`
	Detail      []metric `json:"detail"`
	Layers      []metric `json:"layers,omitempty"`
	Spans       string   `json:"spans,omitempty"` // traced: where the spans went
}

// measure runs one window in this process.
func measure(ctx context.Context, cfg config, d time.Duration, traced bool) (*window, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	p, err := runPhase(ctx, cfg, d, tr)
	if err != nil {
		return nil, err
	}
	w := &window{
		Attempted:   p.r.attempted.Load(),
		Failed:      p.r.failed.Load(),
		IntegrityOK: p.integ.ok(),
		Integrity:   p.integ.String(),
		Errors:      p.r.firstErr,
		E2E:         endToEnd(cfg.workload, p),
		Detail:      detail(cfg.workload, p),
		Layers:      p.layers,
	}
	if traced {
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		w.Spans = fmt.Sprintf("%d kept, %d dropped, written to %s", len(tr.spans), tr.dropped, path)
	}
	return w, nil
}

// runner runs one window of d seconds.
type runner func(ctx context.Context, cfg config, d time.Duration, traced bool) (*window, error)

// inChild runs the window in a child process of this binary, so every
// window starts from a fresh process as a deployed server does: run one
// after another in one process, later servers ran 30–40% slower than
// the first on tree, as process-wide state carried over.
func inChild(ctx context.Context, cfg config, d time.Duration, traced bool) (*window, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "--window", "--workload", cfg.workload,
		"--seed", strconv.FormatUint(cfg.seed, 10), "--seconds", strconv.FormatFloat(d.Seconds(), 'g', -1, 64), "--trace", tr)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("window process: %w", err)
	}
	var w window
	if err := json.Unmarshal(stdout.Bytes(), &w); err != nil {
		return nil, fmt.Errorf("window process output: %w", err)
	}
	return &w, nil
}

func bench(ctx context.Context, cfg config, out io.Writer, run runner) (*result, error) {
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	res := &result{Correct: true, Metrics: make(map[string]jsonMetric)}
	measured := func(label string, d time.Duration, traced bool) (*window, error) {
		w, err := run(ctx, cfg, d, traced)
		if err != nil {
			return nil, err
		}
		res.Attempted += w.Attempted
		res.Failed += w.Failed
		fmt.Fprintf(out, "%s integrity: %s\n%s:", label, w.Integrity, label)
		for _, m := range w.E2E {
			fmt.Fprintf(out, " %s=%.4g", m.Name, m.Value)
		}
		fmt.Fprintln(out)
		if !w.IntegrityOK {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s: integrity check failed: %s\n", label, w.Integrity)
		}
		for _, e := range w.Errors {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", label, e)
		}
		return w, nil
	}
	if !cfg.trace {
		// Several windows, each in a fresh process on a freshly set-up
		// stack, and their medians: one slow or fast window moves nothing.
		var e2e, det [][]metric
		for i := 0; i < cfg.windows; i++ {
			w, err := measured(fmt.Sprintf("window %d", i+1), cfg.seconds/time.Duration(cfg.windows), false)
			if err != nil {
				return nil, err
			}
			e2e, det = append(e2e, w.E2E), append(det, w.Detail)
		}
		med := medianOf(e2e)
		printTable(out, "end-to-end", med)
		printTable(out, "end-to-end detail", medianOf(det))
		fmt.Fprintf(out, "fail_ratio %g (%d of %d ops)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
		for _, m := range med {
			res.Metrics[m.Name] = jsonMetric{m.Value, m.Unit}
		}
	} else {
		half := cfg.seconds / 2
		plain, err := measured("untraced half", half, false)
		if err != nil {
			return nil, err
		}
		traced, err := measured("traced half", half, true)
		if err != nil {
			return nil, err
		}
		printTable(out, "per-layer (traced half)", traced.Layers)
		over := overhead(plain.E2E, traced.E2E)
		printTable(out, "tracing overhead (traced vs untraced half)", over)
		for _, m := range append(append([]metric(nil), traced.Layers...), over...) {
			if gatedLayer[m.Name] {
				res.Metrics[m.Name] = jsonMetric{m.Value, m.Unit}
			}
		}
		fmt.Fprintf(out, "spans: %s\n", traced.Spans)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, nil
}

// overhead is how far each end-to-end metric moves with tracing on, as a
// percentage of the untraced value (setup_s is one sample each side and
// is left out).
func overhead(plain, traced []metric) []metric {
	var out []metric
	for i, m := range plain {
		if m.Name == "setup_s" {
			continue
		}
		out = append(out, metric{Name: "trace.overhead." + m.Name, Value: 100 * (ratio(traced[i].Value, m.Value) - 1), Unit: "%"})
	}
	return out
}

func printTable(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "== %s\n", title)
	for _, m := range ms {
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("n=%d", m.N)
		}
		fmt.Fprintf(w, "%-34s %16.6g %-6s %-9s %s\n", m.Name, m.Value, m.Unit, n, m.Note)
	}
}
