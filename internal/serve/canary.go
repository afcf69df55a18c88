package serve

import (
	"math"
	"sync"
	"sync/atomic"

	"rlibm/internal/fp"
	"rlibm/internal/obs"
	"rlibm/internal/oracle"
	"rlibm/pkg/rlibm"
)

// Online correctness canary. The serving stack's whole reason to exist is
// bit-exact correct rounding, so the canary continuously spot-checks what the
// fleet actually served: a configurable fraction of served elements is
// re-verified against the Ziv oracle in the background, and any mismatch is
// exported loudly (serve.canary.mismatch_total, a trace event, and an error
// log line). Three properties keep it safe to run in production:
//
//   - Off the request path: the only per-request work is a stride counter and,
//     for selected elements, one non-blocking channel send of a small value.
//     The oracle's big.Float evaluation runs on a single background worker.
//   - Drop, never block: when the worker falls behind, new samples are dropped
//     (counted in serve.canary.dropped_total) rather than queued unboundedly
//     or — worse — allowed to stall a sweep.
//   - Read-only: the canary observes (src, dst) pairs after the response is
//     already determined. It cannot change a served bit, by construction.
//
// Inputs the kernels handle via special-case paths (NaN, ±Inf, x == 0, and
// log of x <= 0) are skipped rather than verified — the oracle models the
// real-valued function, not the IEEE special-case table — and counted in
// serve.canary.skipped_total so a skew toward inadmissible traffic is
// visible.
type canary struct {
	every int64        // verify every Nth admissible element
	n     atomic.Int64 // element stride counter, shared across requests

	queue  chan canaryItem
	done   chan struct{} // closed by stop: worker drains and exits
	exited chan struct{} // closed by the worker on exit
	once   sync.Once

	ofns  [rlibm.NumFuncs]oracle.Func
	log   *obs.Logger
	trace *obs.Tracer

	checked  *obs.Counter // serve.canary.checked_total
	mismatch *obs.Counter // serve.canary.mismatch_total
	dropped  *obs.Counter // serve.canary.dropped_total
	skipped  *obs.Counter // serve.canary.skipped_total

	// verifyHook, when non-nil, replaces the oracle verification; the
	// saturation tests use it to wedge the worker and prove that a full
	// queue drops instead of blocking the serving path.
	verifyHook func(canaryItem)
}

// canaryItem is one sampled (input, served output) pair, with the precision
// the output was served at. Plain values only: sending one through the
// bounded queue allocates nothing.
type canaryItem struct {
	f rlibm.Func
	p rlibm.Precision
	x float32
	y float32
}

// precFormats maps each precision to its output format for oracle
// adjudication; all three share float32's 8-bit exponent.
var precFormats = func() [rlibm.NumPrecisions]fp.Format {
	var out [rlibm.NumPrecisions]fp.Format
	for _, p := range rlibm.Precisions {
		out[p] = fp.Format{Bits: p.Bits(), ExpBits: 8}
	}
	return out
}()

func newCanary(cfg Config, reg *obs.Registry) *canary {
	c := &canary{
		queue:    make(chan canaryItem, cfg.CanaryQueue),
		done:     make(chan struct{}),
		exited:   make(chan struct{}),
		log:      cfg.Log,
		trace:    cfg.Tracer,
		checked:  reg.Counter("serve.canary.checked_total"),
		mismatch: reg.Counter("serve.canary.mismatch_total"),
		dropped:  reg.Counter("serve.canary.dropped_total"),
		skipped:  reg.Counter("serve.canary.skipped_total"),
	}
	switch {
	case cfg.CanarySample >= 1:
		c.every = 1
	default:
		c.every = int64(1/cfg.CanarySample + 0.5)
	}
	for _, f := range rlibm.Funcs {
		ofn, err := oracle.ParseFunc(f.String())
		if err != nil {
			panic("serve: no oracle for " + f.String()) // func sets track by design
		}
		c.ofns[f] = ofn
	}
	go c.worker()
	return c
}

// offer samples elements of a served (src, dst) pair for verification. Every
// scheme computes the identical correctly rounded result, so the scheme is
// not part of the sample — a mismatch indicts the (func, scheme) traffic mix
// visible in the phase metrics, and the mismatch log carries the input bits
// needed to reproduce against any scheme. Nil-receiver safe (canary off) and
// allocation-free on every path.
func (c *canary) offer(f rlibm.Func, p rlibm.Precision, src, dst []float32) {
	if c == nil || len(src) == 0 {
		return
	}
	// One atomic add claims this request's slice of the element stride; the
	// elements of this request whose global indices cross a stride boundary
	// are the sample. This keeps per-element cost zero for unsampled spans.
	n := int64(len(src))
	hi := c.n.Add(n)
	lo := hi - n
	// First sampled global index > lo is the next multiple of c.every.
	first := (lo/c.every + 1) * c.every
	for g := first; g <= hi; g += c.every {
		i := int(g - lo - 1)
		c.offerOne(canaryItem{f: f, p: p, x: src[i], y: dst[i]})
	}
}

func (c *canary) offerOne(it canaryItem) {
	if !canaryAdmissible(it.f, it.x) {
		c.skipped.Inc()
		return
	}
	select {
	case c.queue <- it:
	default:
		c.dropped.Inc()
	}
}

// canaryAdmissible reports whether x is in the kernel's polynomial domain
// for f — the inputs whose results the oracle can adjudicate. NaN, ±Inf,
// zeros and log of non-positive x are IEEE special-case territory. Every
// precision's guarantee covers every float32 input, so a narrow request's
// inputs are admissible whether or not the narrow format represents them.
func canaryAdmissible(f rlibm.Func, x float32) bool {
	fx := float64(x)
	if math.IsNaN(fx) || math.IsInf(fx, 0) || fx == 0 {
		return false
	}
	switch f {
	case rlibm.FuncLog, rlibm.FuncLog2, rlibm.FuncLog10:
		return fx > 0
	}
	return true
}

// worker drains the queue, verifying one sample at a time until stop.
func (c *canary) worker() {
	defer close(c.exited)
	for {
		select {
		case it := <-c.queue:
			c.verify(it)
		case <-c.done:
			// Drain what is already queued, then exit; stop() has been
			// called, so the serving side is quiescing.
			for {
				select {
				case it := <-c.queue:
					c.verify(it)
				default:
					return
				}
			}
		}
	}
}

func (c *canary) verify(it canaryItem) {
	if c.verifyHook != nil {
		c.verifyHook(it)
		return
	}
	want := oracle.Correct(c.ofns[it.f], float64(it.x), precFormats[it.p], fp.RNE)
	c.checked.Inc()
	if math.Float64bits(float64(it.y)) == math.Float64bits(want) {
		return
	}
	c.mismatch.Inc()
	c.log.Infof("canary: MISMATCH %s(%v) prec %s [bits %#08x]: served %v (bits %#08x), oracle %v (bits %#08x)",
		it.f, it.x, it.p, math.Float32bits(it.x),
		it.y, math.Float32bits(it.y),
		want, math.Float32bits(float32(want)))
	c.trace.Event("serve.canary.mismatch", obs.Attrs{
		"func":        it.f.String(),
		"prec":        it.p.String(),
		"x_bits":      math.Float32bits(it.x),
		"served_bits": math.Float32bits(it.y),
		"oracle_bits": math.Float32bits(float32(want)),
	})
}

// stop shuts the worker down and waits for it to drain the queued samples,
// so counters read after stop are final. Idempotent.
func (c *canary) stop() {
	c.once.Do(func() { close(c.done) })
	<-c.exited
}
