package rlibm

// Evaluator binds one (function, scheme, precision, backend) combination to
// its generated kernels. Constructing one validates the combination,
// resolves BackendAuto against the machine, and resolves the kernel dispatch
// once; Eval and EvalBatch then run with no per-call validation or map
// lookups, which is the form the serving layer and any long-lived client
// should hold.
//
// The zero Evaluator is not usable; build one with New.
type Evaluator struct {
	f Func
	s Scheme
	p Precision
	b Backend // resolved: never BackendAuto after New

	kernel func(float64) float64
	batch  func(dst, src []float32)
}

// Option configures New.
type Option func(*Evaluator)

// WithPrecision selects the output precision the Evaluator serves. Every
// precision runs the full polynomial; a narrower one rounds its result once
// to the narrow format, which is the correctly rounded narrow value for
// every float32 input (returned as a float32 that carries the narrow value
// exactly).
func WithPrecision(p Precision) Option {
	return func(e *Evaluator) { e.p = p }
}

// WithBackend selects the batch-kernel backend. The default, BackendAuto,
// resolves to the fastest backend available on this machine; a concrete
// backend pins the choice, and New fails with an *OptionError naming the
// machine's available set if it cannot be constructed here (BackendAsm
// without the assembly conversion staging). Backend choice never changes
// results — every backend is bit-identical — only batch throughput;
// Evaluator.Eval is the same scalar kernel under every backend.
func WithBackend(b Backend) Option {
	return func(e *Evaluator) { e.b = b }
}

// New returns an Evaluator for function f under scheme s. Invalid
// combinations are reported as *OptionError values enumerating the valid
// set, making New the natural sink for external input validated by
// ParseFunc, ParseScheme, ParsePrecision and ParseBackend.
func New(f Func, s Scheme, opts ...Option) (*Evaluator, error) {
	e := &Evaluator{f: f, s: s, p: PrecFloat32, b: BackendAuto}
	for _, opt := range opts {
		opt(e)
	}
	if !f.valid() {
		return nil, errUnknownFunc(f)
	}
	if !s.valid() {
		return nil, errUnknownScheme(s)
	}
	if !e.p.valid() {
		return nil, errUnknownPrecision(e.p)
	}
	if !e.b.valid() {
		return nil, errUnknownBackend(e.b, nil)
	}
	if !e.b.Available() {
		return nil, errUnknownBackend(e.b, availableBackendNames())
	}
	e.b = resolveBackend(e.b)
	e.kernel = kernels[f][s][e.p]
	e.batch = batchKernels[e.b][f][s][e.p]
	return e, nil
}

// Func returns the evaluator's function.
func (e *Evaluator) Func() Func { return e.f }

// Scheme returns the evaluator's polynomial-evaluation scheme.
func (e *Evaluator) Scheme() Scheme { return e.s }

// Prec returns the evaluator's output precision.
func (e *Evaluator) Prec() Precision { return e.p }

// Backend returns the evaluator's resolved backend — the one EvalBatch
// actually dispatches to, never BackendAuto. An evaluator built with
// BackendAuto reports what Auto resolved to on this machine.
func (e *Evaluator) Backend() Backend { return e.b }

// Eval returns the correctly rounded result at the evaluator's precision.
// For narrow precisions the returned float32 is exactly a value of the
// narrow format (bfloat16/tf32 embed exactly in float32).
func (e *Evaluator) Eval(x float32) float32 {
	return float32(e.kernel(float64(x)))
}

// EvalBatch evaluates every element of src into dst, with the same contract
// as the package-level EvalBatch: dst must be at least as long as src, extra
// dst capacity is untouched, results are bit-identical to per-element Eval
// calls, and slices of fanOutThreshold (32Ki) elements or more fan out
// across goroutines.
func (e *Evaluator) EvalBatch(dst, src []float32) {
	if len(dst) < len(src) {
		panic("rlibm: EvalBatch dst shorter than src")
	}
	evalBatch(e.batch, dst[:len(src)], src)
}

// Kernel returns the raw double-precision kernel: it maps a float64-widened
// float32 input to the double the evaluator narrows into its float32 result,
// so float32(e.Kernel()(float64(x))) == e.Eval(x) bit for bit. At full
// precision the double lies in the 34-bit round-to-odd interval of the exact
// result; at narrow precisions it is that double rounded once to the
// correctly rounded narrow value.
func (e *Evaluator) Kernel() func(float64) float64 { return e.kernel }
