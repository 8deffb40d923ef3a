package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Latency classes of a sample.
const (
	selective   = "selective"
	unselective = "unselective"
	update      = "update"
)

// spansDir is where the traced run writes its spans, relative to the
// directory the benchmark runs in.
const spansDir = ".bench_build/spans"

// runner carries one run's settings, counters and measurements.
type runner struct {
	name   string
	seed   int64
	dur    time.Duration
	traced bool

	attempted, failed, wrong atomic.Int64
	metrics                  map[string]float64
}

func newRunner(name string, seed int64, dur time.Duration, traced bool) *runner {
	return &runner{name: name, seed: seed, dur: dur, traced: traced, metrics: map[string]float64{}}
}

func (r *runner) set(name string, v float64) { r.metrics[name] = v }

// logf writes a diagnostic line to standard error; standard output is
// reserved for the result line.
func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %s: "+format+"\n", append([]any{r.name}, args...)...)
}

// failOp counts an operation that errored, was refused or timed out.
func (r *runner) failOp(what string, err error) {
	r.failed.Add(1)
	r.logf("op failed: %s: %v", what, err)
}

// wrongOp counts an operation whose answer differs from the oracle's.
// A wrong answer is also a failed operation.
func (r *runner) wrongOp(what string) {
	r.failed.Add(1)
	if r.wrong.Add(1) <= 5 {
		r.logf("wrong answer: %s", what)
	}
}

// sample is one timed operation.
type sample struct {
	name, class string
	ms          float64
}

// recorder collects samples from concurrent clients.
type recorder struct {
	mu sync.Mutex
	s  []sample
}

func (rc *recorder) add(name, class string, d time.Duration) {
	rc.mu.Lock()
	rc.s = append(rc.s, sample{name, class, ms(d)})
	rc.mu.Unlock()
}

func (rc *recorder) samples() []sample {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return append([]sample(nil), rc.s...)
}

// values returns the latencies of the samples whose class is in classes.
func values(s []sample, classes ...string) []float64 {
	var out []float64
	for _, x := range s {
		for _, c := range classes {
			if x.class == c {
				out = append(out, x.ms)
				break
			}
		}
	}
	return out
}

// classLatency is the geometric mean over the operation names of one
// class (every read class when class is "") of each name's median and
// of each name's tail percentile.
func classLatency(s []sample, class string, tailP float64) (p50, tail float64, names int) {
	by := map[string][]float64{}
	for _, x := range s {
		if x.class == class || (class == "" && (x.class == selective || x.class == unselective)) {
			by[x.name] = append(by[x.name], x.ms)
		}
	}
	var meds, tails []float64
	for _, xs := range by {
		meds = append(meds, quantile(xs, 0.5))
		tails = append(tails, quantile(xs, tailP))
	}
	return geomean(meds), geomean(tails), len(by)
}

// minCount is the smallest per-name sample count of one class.
func minCount(s []sample, class string) int {
	by := map[string]int{}
	for _, x := range s {
		if x.class == class {
			by[x.name]++
		}
	}
	least := 0
	for _, n := range by {
		if least == 0 || n < least {
			least = n
		}
	}
	return least
}

// quantile interpolates linearly between the order statistics of xs
// (NaN when xs is empty).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(math.Max(x, 1e-9))
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// newRand is the random stream k of a run.
func newRand(seed, k int64) *rand.Rand { return rand.New(rand.NewSource(seed*1000003 + k)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sliceRates runs slice, a fixed amount of work that returns the
// operations it completed, again and again until at least minSlices
// have run and until has passed, and returns each slice's operations
// per second. Callers report the median: a slice that other load on the
// machine slowed moves it little.
func sliceRates(minSlices int, until time.Time, slice func() int) []float64 {
	var rates []float64
	for len(rates) < minSlices || time.Now().Before(until) {
		start := time.Now()
		n := slice()
		rates = append(rates, float64(n)/time.Since(start).Seconds())
	}
	return rates
}

// median returns the median duration of fn over n calls, in seconds.
func medianSeconds(n int, fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(start).Seconds())
	}
	return quantile(xs, 0.5), nil
}

// heapPeak samples the live Go heap (as marked by the last collection)
// every 20 ms, except while paused, until stopped.
type heapPeak struct {
	stop    chan struct{}
	done    chan struct{}
	paused  atomic.Bool
	samples []float64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			if !h.paused.Load() {
				h.samples = append(h.samples, heapLiveMB())
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// heapWindows is the number of equal stretches the sampled time is cut
// into for the peak.
const heapWindows = 5

// end stops the sampler, waits for it, and returns the median over
// heapWindows equal stretches of each stretch's largest sample, in MB:
// one collection that happened to mark at an unlucky moment moves it
// little.
func (h *heapPeak) end() float64 {
	close(h.stop)
	<-h.done
	s := h.samples
	if !h.paused.Load() {
		s = append(s, heapLiveMB())
	}
	var peaks []float64
	for w := 0; w < heapWindows; w++ {
		lo, hi := w*len(s)/heapWindows, (w+1)*len(s)/heapWindows
		if hi > lo {
			peaks = append(peaks, slices.Max(s[lo:hi]))
		}
	}
	return quantile(peaks, 0.5)
}

func heapLiveMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runtimeMark snapshots the allocation and GC-pause totals at the start
// of a traced phase.
type runtimeMark struct {
	alloc uint64
	pause uint64
}

func markRuntime() runtimeMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeMark{alloc: m.TotalAlloc, pause: m.PauseTotalNs}
}

// setRuntime reports the runtime metrics of the phase since mark.
func (r *runner) setRuntime(mark runtimeMark, ops int) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.set("runtime.alloc_mb_per_op", float64(m.TotalAlloc-mark.alloc)/(1<<20)/float64(max(ops, 1)))
	r.set("runtime.gc_pause_ms", float64(m.PauseTotalNs-mark.pause)/1e6)
	r.set("runtime.heap_live_mb", heapLiveMB())
}
