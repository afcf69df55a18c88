package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// readRequest reads one request frame and returns its id and payload, with
// any trace id split off.
func readRequest(br *bufio.Reader) (id uint64, trace, payload []byte, err error) {
	var hdr [4 + frameHdr]byte
	if _, err = io.ReadFull(br, hdr[:]); err != nil {
		return
	}
	payload = make([]byte, binary.LittleEndian.Uint32(hdr[0:4])-frameHdr)
	if _, err = io.ReadFull(br, payload); err != nil {
		return
	}
	id = binary.LittleEndian.Uint64(hdr[4:12])
	if binary.LittleEndian.Uint16(hdr[14:16])&flagTraced != 0 {
		trace, payload = payload[:8], payload[8:]
	}
	return id, trace, payload, nil
}

// writeResponse writes one response frame, echoing trace when it is set.
func writeResponse(w io.Writer, id uint64, trace []byte, status byte, out []byte) error {
	resp := binary.LittleEndian.AppendUint32(nil, uint32(frameHdr+len(trace)+len(out)))
	resp = binary.LittleEndian.AppendUint64(resp, id)
	traced := byte(0)
	if trace != nil {
		traced = 1
	}
	resp = append(resp, status, traced, 0, 0)
	resp = append(append(resp, trace...), out...)
	_, err := w.Write(resp)
	return err
}

// fakeServer answers stream frames on conn. answer returns the status and
// payload for request id, or ok=false to leave it unanswered; before
// answering request stallAt it stops reading for stall.
func fakeServer(conn net.Conn, answer func(id uint64, payload []byte) (status byte, out []byte, ok bool), stallAt uint64, stall time.Duration) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	for {
		id, trace, body, err := readRequest(br)
		if err != nil {
			return
		}
		if id == stallAt {
			time.Sleep(stall)
		}
		status, out, ok := answer(id, body)
		if !ok {
			continue
		}
		if writeResponse(conn, id, trace, status, out) != nil {
			return
		}
	}
}

func echo(_ uint64, payload []byte) (byte, []byte, bool) { return statusOK, payload, true }

// echoTemplates are requests whose expected answer is their own payload.
func echoTemplates() []streamTemplate {
	a := []byte{1, 0, 0, 0, 2, 0, 0, 0}
	b := []byte{3, 0, 0, 0}
	return []streamTemplate{{payload: a, want: a}, {payload: b, want: b}}
}

func uniformPlan(n int, gap time.Duration) []plannedReq {
	reqs := make([]plannedReq, n)
	for i := range reqs {
		reqs[i] = plannedReq{due: time.Duration(i+1) * gap, tmpl: int32(i % 2)}
	}
	return reqs
}

// A server stall must show up in the latency of the requests that came due
// during it, since latency runs from the due time, and in the sender's
// lateness, since a stalled reader stops the sender's writes.
func TestOpenLoopTimesFromDueAndSeesStalls(t *testing.T) {
	const gap = 500 * time.Microsecond
	const stallAt, stall = 100, 150 * time.Millisecond
	client, srv := net.Pipe()
	go fakeServer(srv, echo, stallAt, stall)
	reqs := uniformPlan(600, gap)
	outs, _ := runOpenLoop([]net.Conn{client}, echoTemplates(), reqs, 7, 2*time.Second)
	st := summarizeLoop(reqs, outs)
	if st.tally.failed() != 0 {
		t.Fatalf("failures: %+v", st.tally)
	}
	// Request stallAt+20 came due 10ms into the stall, so at least the
	// remaining 140ms of it is its latency, most of it spent unsent.
	o := outs[stallAt+20]
	if lat := o.done - reqs[stallAt+20].due; lat < 100*time.Millisecond {
		t.Errorf("request due during the stall has latency %v, want >= 100ms", lat)
	}
	if late := o.sent - reqs[stallAt+20].due; late < 50*time.Millisecond {
		t.Errorf("request due during the stall was sent %v late, want >= 50ms", late)
	}
	if p99 := summarize(st.lateUs).Tail; p99 < 50e3 {
		t.Errorf("sender lateness p99 %vus, want the stall to show (>= 50000us)", p99)
	}
	// Requests long before the stall are unaffected.
	if lat := outs[10].done - reqs[10].due; lat > 100*time.Millisecond {
		t.Errorf("request before the stall has latency %v", lat)
	}
}

func TestOpenLoopCountsEveryFailureKind(t *testing.T) {
	client, srv := net.Pipe()
	go fakeServer(srv, func(id uint64, payload []byte) (byte, []byte, bool) {
		switch id {
		case 3:
			return statusOverld, []byte("shed"), true
		case 5:
			return 2, []byte("bad func"), true
		case 7:
			return statusOK, append([]byte(nil), payload[:len(payload)-1]...), true
		case 9:
			return 0, nil, false // never answered: a timeout
		}
		return echo(id, payload)
	}, ^uint64(0), 0)
	reqs := uniformPlan(20, 100*time.Microsecond)
	outs, _ := runOpenLoop([]net.Conn{client}, echoTemplates(), reqs, 0, 200*time.Millisecond)
	st := summarizeLoop(reqs, outs)
	want := tally{Attempted: 20, Errors: 1, Shed: 1, Timeouts: 1, Mismatches: 1}
	if st.tally != want {
		t.Errorf("tally %+v, want %+v", st.tally, want)
	}
	if r := st.tally.ratio(); r != 4.0/20 {
		t.Errorf("failed_ratio %v, want 0.2", r)
	}
	if len(st.latUs) != 16 {
		t.Errorf("%d latency samples, want one per successful request (16)", len(st.latUs))
	}
}

func pickOfTwo(rng *rand.Rand) int32 { return rng.Int31n(2) }

// The closed loop must keep between half its window and its window of
// requests in flight. This server answers everything it holds once no new
// request has come for 5 ms, so each batch it answers is what the client had
// in flight.
func TestClosedLoopKeepsWindowInFlight(t *testing.T) {
	const window = 8
	client, srv := net.Pipe()
	type req struct {
		id      uint64
		payload []byte
	}
	reqs := make(chan req)
	go func() {
		defer close(reqs)
		br := bufio.NewReader(srv)
		for {
			id, _, payload, err := readRequest(br)
			if err != nil {
				return
			}
			reqs <- req{id, payload}
		}
	}()
	var batches []int
	served := make(chan struct{})
	go func() {
		defer close(served)
		defer srv.Close()
		var held []req
		for {
			select {
			case r, ok := <-reqs:
				if !ok {
					return
				}
				held = append(held, r)
			case <-time.After(5 * time.Millisecond):
				if len(held) == 0 {
					continue
				}
				batches = append(batches, len(held))
				for _, r := range held {
					if writeResponse(srv, r.id, nil, statusOK, r.payload) != nil {
						return
					}
				}
				held = held[:0]
			}
		}
	}()
	st := runClosedStream([]net.Conn{client}, echoTemplates(), pickOfTwo, 1, window, 300*time.Millisecond, time.Second)
	<-served
	if st.tally.failed() != 0 {
		t.Fatalf("failures: %+v", st.tally)
	}
	if int64(len(st.done)) != st.tally.Attempted {
		t.Errorf("%d completions for %d requests", len(st.done), st.tally.Attempted)
	}
	if len(batches) < 10 {
		t.Fatalf("only %d batches answered: %v", len(batches), batches)
	}
	// The last batch may be cut short by the loop's end.
	for i, n := range batches[:len(batches)-1] {
		if n > window || n < window/2 {
			t.Errorf("batch %d held %d requests in flight, want %d to %d: %v", i, n, window/2, window, batches)
			break
		}
	}
}

func TestClosedLoopCountsEveryFailureKind(t *testing.T) {
	client, srv := net.Pipe()
	go fakeServer(srv, func(id uint64, payload []byte) (byte, []byte, bool) {
		switch id >> 16 { // the request's sequence number
		case 3:
			return statusOverld, []byte("shed"), true
		case 5:
			return 2, []byte("bad func"), true
		case 7:
			return statusOK, append([]byte(nil), payload[:len(payload)-1]...), true
		case 9:
			return 0, nil, false // never answered: a timeout
		}
		return echo(id, payload)
	}, ^uint64(0), 0)
	st := runClosedStream([]net.Conn{client}, echoTemplates(), pickOfTwo, 1, 4, 50*time.Millisecond, 200*time.Millisecond)
	want := tally{Attempted: st.tally.Attempted, Errors: 1, Shed: 1, Timeouts: 1, Mismatches: 1}
	if st.tally != want || st.tally.Attempted < 20 {
		t.Errorf("tally %+v, want %+v with at least 20 attempted", st.tally, want)
	}
	if int64(len(st.done)) != st.tally.Attempted-1 {
		t.Errorf("%d completions, want every answered request (%d)", len(st.done), st.tally.Attempted-1)
	}
}

func TestHTTPOutcomes(t *testing.T) {
	want := []float32{1.5, 2}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/shed":
			w.WriteHeader(http.StatusTooManyRequests)
		case "/error":
			w.WriteHeader(http.StatusInternalServerError)
		case "/wrong":
			w.Write([]byte(`{"y":[1.5,3]}`))
		default:
			w.Write([]byte(`{"y":[1.5,2]}`))
		}
	}))
	defer ts.Close()
	var buf bytes.Buffer
	for path, kind := range map[string]uint8{"/ok": outOK, "/shed": outShed, "/error": outError, "/wrong": outMismatch} {
		tmpl := &httpTemplate{url: ts.URL + path, json: true, want: want}
		if got := tmpl.do(ts.Client(), 0, &buf); got != kind {
			t.Errorf("%s: outcome %d, want %d", path, got, kind)
		}
	}
}
