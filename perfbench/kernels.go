package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"rlibm/internal/fp"
	"rlibm/internal/oracle"
	"rlibm/internal/poly"
	"rlibm/internal/rangered"
	"rlibm/pkg/rlibm"
)

// schemeNames are the short scheme names used in metric names.
var schemeNames = [rlibm.NumSchemes]string{"horner", "knuth", "estrin", "estrin-fma"}

const (
	chainLen   = 1024    // dependency-chained calls per latency sample
	batchLen   = 4096    // the batch size below the 32Ki fan-out threshold
	smallBatch = 64      // the serving-size batch
	fanOutLen  = 1 << 20 // above the fan-out threshold
	sweepLen   = 1 << 14 // scalar inputs per function
)

// sink keeps timed results alive so the compiler cannot drop the calls.
var sink float64

// kernelInput draws one float32 input in f's interesting domain: the
// exponentials over their finite-result range, the logarithms over the full
// positive normal range.
func kernelInput(f rlibm.Func, rng *rand.Rand) float32 {
	switch f {
	case rlibm.FuncExp:
		return float32(rng.Float64()*176 - 87)
	case rlibm.FuncExp2:
		return float32(rng.Float64()*252 - 126)
	case rlibm.FuncExp10:
		return float32(rng.Float64()*76 - 38)
	}
	return float32(math.Ldexp(1+rng.Float64(), rng.Intn(252)-126))
}

// toBf16 truncates x to a bfloat16-representable float32.
func toBf16(x float32) float32 { return math.Float32frombits(math.Float32bits(x) &^ 0xFFFF) }

func kernelInputs(f rlibm.Func, p rlibm.Precision, n int, rng *rand.Rand) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = kernelInput(f, rng)
		if p == rlibm.PrecBfloat16 {
			out[i] = toBf16(out[i])
		}
	}
	return out
}

// nudge returns a value that is 0 or the smallest subnormal depending on
// prev's low bit. Adding it to the next input makes every call depend on the
// previous result without changing any float32-level answer, so the timing
// is a latency, as with the paper's serialising rdtscp.
func nudge(prev float64) float64 { return math.Float64frombits(math.Float64bits(prev) & 1) }

// chainNs times dependency-chained calls of k over xs, in ns per call.
func chainNs(k func(float64) float64, xs []float64) float64 {
	var prev float64
	start := time.Now()
	for _, x := range xs {
		prev = k(x + nudge(prev))
	}
	el := time.Since(start)
	sink += prev
	return float64(el.Nanoseconds()) / float64(len(xs))
}

// batchLane is one timed EvalBatch configuration with its reference output,
// computed once through Evaluator.Eval outside the clock.
type batchLane struct {
	name      string
	ev        *rlibm.Evaluator
	src, dst  []float32
	want      []float32
	reps      int // calls per sample (small batches repeat to stay above timer noise)
	samples   []float64
	mismatch  int64
	attempted int64
}

func newBatchLane(name string, ev *rlibm.Evaluator, src []float32, reps int) *batchLane {
	want := make([]float32, len(src))
	for i, x := range src {
		want[i] = ev.Eval(x)
	}
	return &batchLane{name: name, ev: ev, src: src, dst: make([]float32, len(src)), want: want, reps: reps}
}

// sample times reps EvalBatch calls, records ns per element, then checks
// the output bit for bit against the scalar reference, outside the clock.
func (b *batchLane) sample(tr *recorder, parent int) {
	start := time.Now()
	for i := 0; i < b.reps; i++ {
		b.ev.EvalBatch(b.dst, b.src)
	}
	end := time.Now()
	tr.add("rlibm.EvalBatch", parent, 0, start, end)
	b.samples = append(b.samples, float64(end.Sub(start).Nanoseconds())/float64(b.reps*len(b.src)))
	b.attempted++
	for i, y := range b.dst {
		if math.Float32bits(y) != math.Float32bits(b.want[i]) {
			b.mismatch++
			break
		}
	}
}

func mustEval(f rlibm.Func, s rlibm.Scheme, opts ...rlibm.Option) *rlibm.Evaluator {
	ev, err := rlibm.New(f, s, opts...)
	if err != nil {
		panic(err) // every (func, scheme, precision, available backend) is valid
	}
	return ev
}

// chainSet is the scalar half of the kernels workload: the 24 (func,
// scheme) kernels through Evaluator.Kernel, timed as dependency chains.
type chainSet struct {
	names   []string
	kernels []func(float64) float64
	sweeps  [][]float64
	samples [][]float64
}

func newChainSet(rng *rand.Rand) *chainSet {
	c := &chainSet{}
	for _, f := range rlibm.Funcs {
		sweep := make([]float64, sweepLen)
		for i := range sweep {
			sweep[i] = float64(kernelInput(f, rng))
		}
		for si, s := range rlibm.Schemes {
			c.names = append(c.names, f.String()+"."+schemeNames[si])
			c.kernels = append(c.kernels, mustEval(f, s).Kernel())
			c.sweeps = append(c.sweeps, sweep)
		}
	}
	c.samples = make([][]float64, len(c.kernels))
	return c
}

func (c *chainSet) round(r int, tr *recorder, parent int) {
	off := (r * chainLen) % sweepLen
	for i, k := range c.kernels {
		start := time.Now()
		ns := chainNs(k, c.sweeps[i][off:off+chainLen])
		tr.add("libm.kernel", parent, 0, start, time.Now())
		c.samples[i] = append(c.samples[i], ns)
	}
}

func (c *chainSet) medians() map[string]float64 {
	out := map[string]float64{}
	for i, n := range c.names {
		out[n] = median(c.samples[i])
	}
	return out
}

// vsHornerPct is the paper's Table 2 average: the mean over functions of
// each scheme's per-call speedup over Horner, in percent.
func vsHornerPct(med map[string]float64, scheme string) float64 {
	sum := 0.0
	for _, f := range rlibm.Funcs {
		sum += (med[f.String()+".horner"]/med[f.String()+"."+scheme] - 1) * 100
	}
	return sum / rlibm.NumFuncs
}

// layerProbe times layer functions outside the inlined kernels: isolated
// degree-5 polynomial chains and the range reductions and compensations.
// They are proxies, not a breakdown of the kernels' own time.
type layerProbe struct {
	names   []string
	fns     []func(float64) float64
	xs      [][]float64
	samples [][]float64
}

func newLayerProbe(rng *rand.Rand) *layerProbe {
	p := &layerProbe{}
	add := func(name string, xs []float64, fn func(float64) float64) {
		p.names = append(p.names, name)
		p.fns = append(p.fns, fn)
		p.xs = append(p.xs, xs)
	}
	// A degree-5 polynomial on the reduced domain, as FPplus's polevl times
	// its Horner variants.
	c := []float64{1, 1, 0.5, 1.0 / 6, 1.0 / 24, 1.0 / 120}
	adapted, err := poly.Adapt5([6]float64(c))
	if err != nil {
		panic(err)
	}
	reduced := make([]float64, chainLen)
	for i := range reduced {
		reduced[i] = rng.Float64()*0.02 - 0.01
	}
	add("poly.chain_ns.horner", reduced, func(x float64) float64 { return poly.EvalHorner(c, x) })
	add("poly.chain_ns.horner-fma", reduced, func(x float64) float64 { return poly.EvalHornerFMA(c, x) })
	add("poly.chain_ns.knuth", reduced, func(x float64) float64 { return poly.EvalAdapted5(&adapted, x) })
	add("poly.chain_ns.estrin", reduced, func(x float64) float64 { return poly.EvalEstrin(c, x) })
	add("poly.chain_ns.estrin-fma", reduced, func(x float64) float64 { return poly.EvalEstrinFMA(c, x) })

	inputs := func(f rlibm.Func) []float64 {
		xs := make([]float64, chainLen)
		for i := range xs {
			xs[i] = float64(kernelInput(f, rng))
		}
		return xs
	}
	reduce := func(red func(float64) (float64, rangered.Key)) func(float64) float64 {
		return func(x float64) float64 { r, _ := red(x); return r }
	}
	add("rangered.reduce_ns.exp", inputs(rlibm.FuncExp), reduce(rangered.ReduceExp))
	add("rangered.reduce_ns.exp2", inputs(rlibm.FuncExp2), reduce(rangered.ReduceExp2))
	add("rangered.reduce_ns.exp10", inputs(rlibm.FuncExp10), reduce(rangered.ReduceExp10))
	add("rangered.reduce_ns.log", inputs(rlibm.FuncLog), reduce(rangered.ReduceLog))
	// Compensation chains feed the polynomial value through one fixed key;
	// the key is data, so table lookups are timed as the kernels pay them.
	_, expKey := rangered.ReduceExp(1.5)
	_, logKey := rangered.ReduceLog(3.7)
	pvals := make([]float64, chainLen)
	for i := range pvals {
		pvals[i] = 1 + rng.Float64()*0.01
	}
	add("rangered.compensate_ns.exp", pvals, func(p float64) float64 { return rangered.CompensateExpFamily(p, expKey) })
	add("rangered.compensate_ns.log", reduced, func(p float64) float64 { return rangered.CompensateLn(p, logKey) })
	add("rangered.compensate_ns.log2", reduced, func(p float64) float64 { return rangered.CompensateLog2(p, logKey) })
	add("rangered.compensate_ns.log10", reduced, func(p float64) float64 { return rangered.CompensateLog10(p, logKey) })
	p.samples = make([][]float64, len(p.fns))
	return p
}

func (p *layerProbe) round(tr *recorder, parent int) {
	for i, fn := range p.fns {
		start := time.Now()
		ns := chainNs(fn, p.xs[i])
		tr.add(p.names[i], parent, 0, start, time.Now())
		p.samples[i] = append(p.samples[i], ns)
	}
}

// kernelLanes builds the batch configurations of the kernels workload.
type kernelLanes struct {
	f32, tf32, bf16, n64 []*batchLane // one per function, Estrin+FMA, default backend
	n1Mi                 []*batchLane
	backends             map[string][]*batchLane // traced passes only
}

func newKernelLanes(rng *rand.Rand, traced bool) *kernelLanes {
	k := &kernelLanes{backends: map[string][]*batchLane{}}
	for _, f := range rlibm.Funcs {
		src := kernelInputs(f, rlibm.PrecFloat32, batchLen, rng)
		k.f32 = append(k.f32, newBatchLane("f32."+f.String(), mustEval(f, rlibm.EstrinFMA), src, 1))
		k.tf32 = append(k.tf32, newBatchLane("tf32."+f.String(),
			mustEval(f, rlibm.EstrinFMA, rlibm.WithPrecision(rlibm.PrecTF32)), src, 1))
		k.bf16 = append(k.bf16, newBatchLane("bf16."+f.String(),
			mustEval(f, rlibm.EstrinFMA, rlibm.WithPrecision(rlibm.PrecBfloat16)),
			kernelInputs(f, rlibm.PrecBfloat16, batchLen, rng), 1))
		k.n64 = append(k.n64, newBatchLane("n64."+f.String(), mustEval(f, rlibm.EstrinFMA), src[:smallBatch], 64))
		if traced {
			for b := rlibm.Backend(1); b < rlibm.NumBackends; b++ {
				if b.Available() {
					k.backends[b.String()] = append(k.backends[b.String()],
						newBatchLane(b.String()+"."+f.String(), mustEval(f, rlibm.EstrinFMA, rlibm.WithBackend(b)), src, 1))
				}
			}
		}
	}
	for _, f := range []rlibm.Func{rlibm.FuncExp, rlibm.FuncLog2} {
		k.n1Mi = append(k.n1Mi, newBatchLane("n1Mi."+f.String(), mustEval(f, rlibm.EstrinFMA),
			kernelInputs(f, rlibm.PrecFloat32, fanOutLen, rng), 1))
	}
	return k
}

// everyRound lists the lanes sampled in every round: all but the 1Mi ones.
func (k *kernelLanes) everyRound() []*batchLane {
	out := append(append(append(append([]*batchLane{}, k.f32...), k.tf32...), k.bf16...), k.n64...)
	for _, name := range sortedKeys(k.backends) {
		out = append(out, k.backends[name]...)
	}
	return out
}

func laneGeomean(lanes []*batchLane) float64 {
	var meds []float64
	for _, l := range lanes {
		meds = append(meds, median(l.samples))
	}
	return geomean(meds)
}

// runKernels is the kernels workload: one goroutine, closed loop, in-process
// calls into pkg/rlibm, rounds interleaving every configuration so drift
// hits all of them alike.
func runKernels(e *env, seconds float64, tr *recorder) (*report, error) {
	rep := newReport()
	spawns := 51
	if e.Probe {
		spawns = 3
	}
	setupTimes, setupReps, err := childSetup("setup-kernels", e.Seed, spawns)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.Seed))
	chains := newChainSet(rng)
	lanes := newKernelLanes(rng, tr != nil)
	var probe *layerProbe
	if tr != nil {
		probe = newLayerProbe(rng)
	}

	every := lanes.everyRound()
	all := append(append([]*batchLane{}, every...), lanes.n1Mi...)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	rounds := 0
	for r := 0; time.Now().Before(deadline); r++ {
		parent := tr.begin("kernels.round", 0)
		chains.round(r, tr, parent)
		for _, l := range every {
			l.sample(tr, parent)
		}
		if r%16 == 0 {
			lanes.n1Mi[(r/16)%len(lanes.n1Mi)].sample(tr, parent)
		}
		if probe != nil {
			probe.round(tr, parent)
		}
		tr.end(parent)
		rounds++
	}

	for _, l := range all {
		rep.Tally.Attempted += l.attempted
		rep.Tally.Mismatches += l.mismatch
	}
	oracleWrong, oracleChecked := kernelOracleSample(rng)
	rep.Checks["oracle_sample_checked"] = oracleChecked
	rep.Checks["oracle_sample_wrong"] = oracleWrong
	rep.Checks["rounds"] = rounds

	var callMeds, callTails []float64
	for i, n := range chains.names {
		d := rep.dist("call_ns."+n, chains.samples[i])
		callMeds = append(callMeds, d.P50)
		callTails = append(callTails, d.Tail)
	}
	callNs, callTail := geomean(callMeds), geomean(callTails)
	for _, l := range all {
		rep.dist("batch_ns_per_elem."+l.name, l.samples)
	}
	batchNs := laneGeomean(lanes.f32)
	bf16Ns := laneGeomean(lanes.bf16)
	setup := rep.dist("setup_s", setupTimes)
	rss, err := peakRSSMiB(0)
	if err != nil {
		return nil, err
	}
	rep.named("call_ns", "ns", callNs, nil)
	rep.named("batch_ns_per_elem", "ns", batchNs, nil)
	rep.named("batch_bf16_ns_per_elem", "ns", bf16Ns, nil)
	rep.e2e(mLatP50, "us", callNs/1000, nil)
	rep.e2e(mThroughput, "1/s", 1e9/batchNs, nil)
	rep.e2e(mSetup, "s", setup.P50, setup)
	rep.e2e(mRSS, "MiB", rss, nil)

	if tr == nil {
		return rep, nil
	}
	rep.layer(lP99, "us", callTail/1000)
	med := chains.medians()
	for _, n := range chains.names {
		rep.layer("libm.call_ns."+n, "ns", med[n])
	}
	for _, s := range schemeNames[1:] {
		rep.layer("libm."+s+"_vs_horner_pct", "%", vsHornerPct(med, s))
	}
	for i, n := range probe.names {
		rep.layer(n, "ns", median(probe.samples[i]))
	}
	for name, ls := range lanes.backends {
		rep.layer("rlibm.batch_ns_per_elem."+name, "ns", laneGeomean(ls))
	}
	for i, f := range rlibm.Funcs {
		rep.layer("rlibm.batch_ns_per_elem."+f.String(), "ns", median(lanes.f32[i].samples))
	}
	rep.layer("rlibm.batch_ns_per_elem.tf32", "ns", laneGeomean(lanes.tf32))
	rep.layer("rlibm.batch_ns_per_elem.bf16", "ns", bf16Ns)
	rep.layer("rlibm.batch_ns_per_elem.n64", "ns", laneGeomean(lanes.n64))
	rep.layer("rlibm.batch_ns_per_elem.n1Mi", "ns", laneGeomean(lanes.n1Mi))
	var bf16ms []float64
	for _, r := range setupReps {
		bf16ms = append(bf16ms, r["bf16_build_ms"])
	}
	rep.layer("rlibm.bf16_table_build_ms", "ms", median(bf16ms))
	rep.layer("libm.oracle_sample_wrong", "count", float64(oracleWrong))
	v3, err := runV3Probe(e)
	if err != nil {
		return nil, err
	}
	rep.layer("libm.estrin-fma_vs_horner_pct.v3", "%", v3["estrin_fma_vs_horner_pct"])
	rep.layer("poly.chain_ns.estrin-fma.v3", "ns", v3["poly_chain_estrin_fma_ns"])
	return rep, nil
}

// kernelOracleSample checks a seeded sample of every function at every
// precision against the oracle's correctly rounded result in that
// precision's format. Disagreements are counted, not failed: the shipped
// polynomials have known single-ulp residuals.
func kernelOracleSample(rng *rand.Rand) (wrong, checked int) {
	formats := [rlibm.NumPrecisions]fp.Format{fp.Float32, fp.TensorFloat32, fp.Bfloat16}
	for _, f := range rlibm.Funcs {
		ofn, err := oracle.ParseFunc(f.String())
		if err != nil {
			panic(err)
		}
		for _, p := range rlibm.Precisions {
			ev := mustEval(f, rlibm.EstrinFMA, rlibm.WithPrecision(p))
			for _, x := range kernelInputs(f, p, 256, rng) {
				want := oracle.Correct(ofn, float64(x), formats[p], fp.RNE)
				checked++
				if math.Float64bits(float64(ev.Eval(x))) != math.Float64bits(want) {
					wrong++
				}
			}
		}
	}
	return wrong, checked
}

// setupKernels is the kernels workload's set-up in a fresh process: every
// evaluator constructed, and the lazy bfloat16 memo tables built.
func setupKernels() (map[string]float64, error) {
	start := time.Now()
	var bf16 []*rlibm.Evaluator
	for _, f := range rlibm.Funcs {
		for _, s := range rlibm.Schemes {
			for _, p := range rlibm.Precisions {
				ev, err := rlibm.New(f, s, rlibm.WithPrecision(p))
				if err != nil {
					return nil, err
				}
				if p == rlibm.PrecBfloat16 && s == rlibm.EstrinFMA {
					bf16 = append(bf16, ev)
				}
			}
		}
	}
	evMs := float64(time.Since(start).Nanoseconds()) / 1e6
	tabStart := time.Now()
	x, y := []float32{1}, []float32{0}
	for _, ev := range bf16 {
		ev.EvalBatch(y, x)
	}
	end := time.Now()
	return map[string]float64{
		"setup_ms":      float64(end.Sub(start).Nanoseconds()) / 1e6,
		"evaluators_ms": evMs,
		"bf16_build_ms": float64(end.Sub(tabStart).Nanoseconds()) / 1e6,
	}, nil
}

// v3Probe runs in the GOAMD64=v3 build: the scalar Horner and Estrin+FMA
// chains of every function and the isolated Estrin+FMA polynomial chain.
// Under v3 math.FMA compiles to the instruction with no CPUID check.
func v3Probe(seed int64) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	chains := newChainSet(rng)
	probe := newLayerProbe(rng)
	deadline := time.Now().Add(1500 * time.Millisecond)
	for r := 0; time.Now().Before(deadline); r++ {
		chains.round(r, nil, 0)
		probe.round(nil, 0)
	}
	out := map[string]float64{"estrin_fma_vs_horner_pct": vsHornerPct(chains.medians(), "estrin-fma")}
	for i, n := range probe.names {
		if n == "poly.chain_ns.estrin-fma" {
			out["poly_chain_estrin_fma_ns"] = median(probe.samples[i])
		}
	}
	return out, nil
}

func runV3Probe(e *env) (map[string]float64, error) {
	out, err := exec.Command(filepath.Join(e.BinDir, "perfbench-v3"), "child", "v3probe",
		strconv.FormatInt(e.Seed, 10)).Output()
	if err != nil {
		return nil, fmt.Errorf("v3 probe: %w", err)
	}
	var rep map[string]float64
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, fmt.Errorf("v3 probe output: %w", err)
	}
	return rep, nil
}
