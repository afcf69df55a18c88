package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"rlibm/pkg/rlibm"
)

// server is one rlibm-serve process built from the checkout under test.
type server struct {
	cmd        *exec.Cmd
	exited     chan struct{}
	stderr     bytes.Buffer
	httpAddr   string
	streamAddr string
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer launches rlibm-serve with the online canary off, so the
// oracle does not compete with serving for the CPUs, and waits for
// /healthz. A non-empty tracePath runs it with -trace and every request
// traced; a positive procs sets its GOMAXPROCS. A port from freePort can be
// taken by another socket before the server binds it, so a start that
// fails that way is retried on fresh ports.
func startServer(e *env, tracePath string, procs int) (*server, error) {
	for attempt := 1; ; attempt++ {
		s, err := launchServer(e, tracePath, procs)
		if err == nil || attempt == 5 || !strings.Contains(err.Error(), "address already in use") {
			return s, err
		}
	}
}

func launchServer(e *env, tracePath string, procs int) (*server, error) {
	httpAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	streamAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", httpAddr, "-stream-addr", streamAddr, "-q", "-canary-sample", "0"}
	if tracePath != "" {
		args = append(args, "-trace", tracePath, "-trace-sample", "1")
	}
	s := &server{httpAddr: httpAddr, streamAddr: streamAddr, exited: make(chan struct{})}
	s.cmd = exec.Command(filepath.Join(e.BinDir, "rlibm-serve"), args...)
	s.cmd.Stderr = &s.stderr
	if procs > 0 {
		s.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start rlibm-serve: %w", err)
	}
	go func() { s.cmd.Wait(); close(s.exited) }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		select {
		case <-s.exited:
			return nil, fmt.Errorf("rlibm-serve exited during start-up: %s", s.stderr.String())
		default:
		}
		if resp, err := probeClient.Get("http://" + httpAddr + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("rlibm-serve not healthy after 20s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM, which drains and exits rlibm-serve (flushing its
// trace file), and waits for the process; it kills it if the drain hangs.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// metrics is the part of the server's /metricz JSON snapshot the benchmark
// reads.
type metrics struct {
	Counters   map[string]int64 `json:"counters"`
	Gauges     map[string]int64 `json:"gauges"`
	Histograms map[string]struct {
		Count int64 `json:"count"`
		Sum   int64 `json:"sum"`
	} `json:"histograms"`
}

var probeClient = &http.Client{Timeout: 5 * time.Second}

func (s *server) metricz() (*metrics, error) {
	resp, err := probeClient.Get("http://" + s.httpAddr + "/metricz?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode /metricz: %w", err)
	}
	return &m, nil
}

// histDelta sums count and sum over every histogram whose name ends with
// suffix, between two snapshots.
func histDelta(a, b *metrics, suffix string) (count, sum int64) {
	for name, h := range b.Histograms {
		if strings.HasSuffix(name, suffix) {
			count += h.Count - a.Histograms[name].Count
			sum += h.Sum - a.Histograms[name].Sum
		}
	}
	return count, sum
}

// phaseMeansUs returns the mean decode, queue, sweep and encode time per
// request, in microseconds, from the per-(func, scheme) phase histograms.
func phaseMeansUs(a, b *metrics) map[string]float64 {
	out := map[string]float64{}
	for _, p := range []string{"decode", "queue", "sweep", "encode"} {
		n, sum := histDelta(a, b, "/phase/"+p+"_ns")
		if n > 0 {
			out[p] = float64(sum) / float64(n) / 1e3
		}
	}
	return out
}

// lane is one (func, scheme, precision) combination; there are 72.
type lane struct {
	f rlibm.Func
	s rlibm.Scheme
	p rlibm.Precision
}

func allLanes() []lane {
	var out []lane
	for _, f := range rlibm.Funcs {
		for _, s := range rlibm.Schemes {
			for _, p := range rlibm.Precisions {
				out = append(out, lane{f, s, p})
			}
		}
	}
	return out
}

// reference evaluates src through the matching pkg/rlibm Evaluator.
func reference(l lane, src []float32) []float32 {
	dst := make([]float32, len(src))
	mustEval(l.f, l.s, rlibm.WithPrecision(l.p)).EvalBatch(dst, src)
	return dst
}

func f32Bytes(xs []float32) []byte {
	out := make([]byte, 0, 4*len(xs))
	for _, x := range xs {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(x))
	}
	return out
}

func newStreamTemplate(l lane, src []float32) streamTemplate {
	return streamTemplate{fn: byte(l.f), scheme: byte(l.s), prec: byte(l.p),
		payload: f32Bytes(src), want: f32Bytes(reference(l, src))}
}

// warmTemplates draws one request per lane for warm, with its expected
// answer, before the set-up clock starts.
func warmTemplates(rng *rand.Rand) []streamTemplate {
	var out []streamTemplate
	for _, l := range allLanes() {
		out = append(out, newStreamTemplate(l, kernelInputs(l.f, l.p, smallBatch, rng)))
	}
	return out
}

// warm sends the requests in tmpls at once over one stream connection, so
// every lazily built table exists before measuring, and counts each answer
// in t. Sent one at a time, each of the 72 round trips added its thread
// wake-ups, which drift with the shared host, to the set-up time.
func (s *server) warm(tmpls []streamTemplate, t *tally) error {
	conn, err := net.Dial("tcp", s.streamAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	var frames []byte
	for i := range tmpls {
		frames = appendFrame(frames, uint64(i), &tmpls[i], 0)
	}
	if _, err := conn.Write(frames); err != nil {
		return err
	}
	br := bufio.NewReader(conn)
	seen := make([]bool, len(tmpls))
	var buf []byte
	for range tmpls {
		id, status, payload, b, err := readResponse(br, buf)
		buf = b
		if err != nil {
			return err
		}
		if id >= uint64(len(tmpls)) || seen[id] {
			return fmt.Errorf("warm-up: unexpected response id %d", id)
		}
		seen[id] = true
		t.Attempted++
		switch {
		case status == statusOverld:
			t.Shed++
		case status != statusOK:
			t.Errors++
		case !bytes.Equal(payload, tmpls[id].want):
			t.Mismatches++
		}
	}
	return nil
}

// startMeasured runs the serve workloads' set-up n times — server start to
// /healthz OK plus one warm request per lane, counted in t — and returns
// the last server, left running, with every set-up time in seconds and
// that server's peak resident memory after set-up. The peak is taken before
// any load: under load it follows how far the Go heap happened to grow,
// which varied by a third from run to run.
func startMeasured(e *env, n int, tracePath string, procs int, rng *rand.Rand, t *tally) (*server, []float64, float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		tmpls := warmTemplates(rng)
		start := time.Now()
		s, err := startServer(e, tracePath, procs)
		if err != nil {
			return nil, nil, 0, err
		}
		if err := s.warm(tmpls, t); err != nil {
			s.stop()
			return nil, nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < n-1 {
			s.stop()
			continue
		}
		rss, err := peakRSSMiB(s.cmd.Process.Pid)
		if err != nil {
			s.stop()
			return nil, nil, 0, err
		}
		return s, times, rss, nil
	}
	return nil, nil, 0, fmt.Errorf("no set-up runs requested")
}

// serverSpan is one phase span from the server's trace file.
type serverSpan struct {
	Ev    string `json:"ev"`
	Trace string `json:"trace"`
	DurUs int64  `json:"dur_us"`
}

// readServerSpans stops srv, which flushes its trace file, and returns the
// file's serve.decode/queue/sweep/encode spans grouped by trace id. The file
// is removed afterwards: the joined spans are written with the benchmark's
// own.
func readServerSpans(srv *server, path string) (map[uint64][]serverSpan, error) {
	srv.stop()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	defer f.Close()
	out := map[uint64][]serverSpan{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var sp serverSpan
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			return nil, fmt.Errorf("server trace line: %w", err)
		}
		switch sp.Ev {
		case "serve.decode", "serve.queue", "serve.sweep", "serve.encode":
		default:
			continue
		}
		var id uint64
		if _, err := fmt.Sscanf(sp.Trace, "%x", &id); err != nil {
			continue
		}
		out[id] = append(out[id], sp)
	}
	return out, sc.Err()
}

// joinServerSpans records each traced client request as a span named name,
// with the server's phase spans for the same trace id as its children, and
// returns the client span's mean self time in microseconds: the request's
// time not covered by any server phase (network, syscalls, the client and
// the scheduler). The two processes' clocks are not aligned, so the server
// spans are laid back to back from the client span's start; only their
// durations are measured.
func joinServerSpans(tr *recorder, name string, reqs []clientSpan, byTrace map[uint64][]serverSpan) (float64, error) {
	var self time.Duration
	joined := 0
	for _, r := range reqs {
		phases, ok := byTrace[r.trace]
		if !ok {
			continue
		}
		id := tr.add(name, 0, r.trace, r.start, r.end)
		at := r.start
		for _, p := range phases {
			end := at.Add(time.Duration(p.DurUs) * time.Microsecond)
			tr.add(p.Ev, id, r.trace, at, end)
			at = end
		}
		self += max(r.end.Sub(at), 0)
		joined++
	}
	if joined == 0 {
		return 0, fmt.Errorf("no %s span matched a server trace span", name)
	}
	return us(self) / float64(joined), nil
}

// clientSpan is one traced request as the client saw it.
type clientSpan struct {
	trace      uint64
	start, end time.Time
}
