package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// Stream protocol framing as internal/serve/stream.go defines it. The
// benchmark speaks the wire format itself so it can stamp each request's
// due, send and receive times, and carry both a precision and a trace id on
// one frame.
const (
	frameHdr      = 12 // bytes after the u32 length: id, func, scheme, flags
	flagTraced    = 0x0001
	precShift     = 8
	statusOK      = 0
	statusOverld  = 5
	respTracedOff = 13 // header byte set when the payload leads with the trace id
)

// streamTemplate is one pre-encoded request: the lane and the input payload,
// with the expected result payload computed through pkg/rlibm outside the
// clock.
type streamTemplate struct {
	fn, scheme, prec byte
	payload, want    []byte
}

// appendFrame encodes a request frame; a nonzero trace marks it traced.
func appendFrame(buf []byte, id uint64, t *streamTemplate, trace uint64) []byte {
	extra := 0
	flags := uint16(t.prec) << precShift
	if trace != 0 {
		extra = 8
		flags |= flagTraced
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(frameHdr+extra+len(t.payload)))
	buf = binary.LittleEndian.AppendUint64(buf, id)
	buf = append(buf, t.fn, t.scheme)
	buf = binary.LittleEndian.AppendUint16(buf, flags)
	if trace != 0 {
		buf = binary.LittleEndian.AppendUint64(buf, trace)
	}
	return append(buf, t.payload...)
}

// readResponse reads one response frame into buf and returns the id, the
// status, the result payload with any echoed trace id stripped, and buf,
// grown if the frame needed it, for the next call.
func readResponse(br *bufio.Reader, buf []byte) (id uint64, status byte, payload, grown []byte, err error) {
	var hdr [4 + frameHdr]byte
	if _, err = io.ReadFull(br, hdr[:]); err != nil {
		return
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:4])) - frameHdr
	if n < 0 {
		err = io.ErrUnexpectedEOF
		return
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err = io.ReadFull(br, buf); err != nil {
		return
	}
	id = binary.LittleEndian.Uint64(hdr[4:12])
	status = hdr[12]
	payload = buf
	if hdr[respTracedOff] == 1 && len(payload) >= 8 {
		payload = payload[8:]
	}
	return id, status, payload, buf, nil
}

// plannedReq is one scheduled request: when it is due relative to the start
// of the loop, and which template it sends.
type plannedReq struct {
	due  time.Duration
	tmpl int32
}

// poissonPlan schedules requests at the given mean rate for d with
// exponential gaps, choosing templates through pick.
func poissonPlan(rng *rand.Rand, rate float64, d time.Duration, pick func(*rand.Rand) int32) []plannedReq {
	var out []plannedReq
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, plannedReq{due: due, tmpl: pick(rng)})
	}
}

// Request outcomes.
const (
	outPending = iota
	outOK
	outShed
	outError
	outMismatch
	outTimeout
)

// outcome is what happened to one request; times are relative to the
// loop's start.
type outcome struct {
	sent, done time.Duration
	kind       uint8
}

// runOpenLoop sends reqs over conns at their due times, request i on
// conn i%len(conns), and returns one outcome per request. One sender
// sleeps until the next request is due, flushing what it has queued before
// it sleeps; each connection has a reader that stamps each response on
// arrival and compares it with the template's expected payload. Requests
// without a response drain after the sender finished are timeouts. A nonzero
// traceBase sends request i traced with id traceBase+i. It also returns
// the start the outcomes' times are relative to.
func runOpenLoop(conns []net.Conn, templates []streamTemplate, reqs []plannedReq, traceBase uint64, drain time.Duration) ([]outcome, time.Time) {
	outs := make([]outcome, len(reqs))
	start := time.Now()
	var remaining sync.WaitGroup
	remaining.Add(len(reqs))
	var readers sync.WaitGroup
	for c, conn := range conns {
		readers.Add(1)
		go func(c int, conn net.Conn) {
			defer readers.Done()
			br := bufio.NewReaderSize(conn, 64<<10)
			var buf []byte
			for {
				id, status, payload, b, err := readResponse(br, buf)
				buf = b
				if err != nil {
					return
				}
				if id >= uint64(len(reqs)) || int(id)%len(conns) != c || outs[id].kind != outPending {
					return // a response this loop never asked for: the stream is out of sync
				}
				o := &outs[id]
				o.done = time.Since(start)
				switch {
				case status == statusOverld:
					o.kind = outShed
				case status != statusOK:
					o.kind = outError
				case !bytes.Equal(payload, templates[reqs[id].tmpl].want):
					o.kind = outMismatch
				default:
					o.kind = outOK
				}
				remaining.Done()
			}
		}(c, conn)
	}
	failed := make([]bool, len(conns))
	sendLoop(conns, failed, templates, reqs, outs, start, traceBase)
	for i := range reqs {
		if failed[i%len(conns)] && outs[i].sent < 0 {
			outs[i].kind = outError
			remaining.Done()
		}
	}
	done := make(chan struct{})
	go func() { remaining.Wait(); close(done) }()
	// The drain runs from when the sender finished, which under
	// backpressure can be well after the last due time.
	select {
	case <-done:
	case <-time.After(drain):
	}
	for _, conn := range conns {
		conn.Close()
	}
	readers.Wait()
	for i := range outs {
		if outs[i].kind == outPending {
			outs[i].kind = outTimeout
			remaining.Done()
		}
	}
	<-done
	return outs, start
}

// sendLoop is the open loop's one sender. It runs on a locked OS thread and
// sleeps with nanosleep, whose wake-up is far finer than the runtime
// timer's on an idle process; the readers keep the other CPU. A request it
// never wrote keeps a negative sent time, and a connection whose write
// failed is marked in failed and gets no further requests.
func sendLoop(conns []net.Conn, failed []bool, templates []streamTemplate, reqs []plannedReq, outs []outcome, start time.Time, traceBase uint64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	bws := make([]*bufio.Writer, len(conns))
	for c, conn := range conns {
		bws[c] = bufio.NewWriterSize(conn, 64<<10)
	}
	flush := func() {
		for c, bw := range bws {
			if !failed[c] && bw.Buffered() > 0 && bw.Flush() != nil {
				failed[c] = true
			}
		}
	}
	for i := range outs {
		outs[i].sent = -1
	}
	var frame []byte
	for i := range reqs {
		due := start.Add(reqs[i].due)
		if time.Until(due) > 0 {
			flush()
		}
		if wait := time.Until(due); wait > 0 {
			ts := syscall.NsecToTimespec(wait.Nanoseconds())
			for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
			}
		}
		c := i % len(conns)
		if failed[c] {
			continue
		}
		trace := uint64(0)
		if traceBase != 0 {
			trace = traceBase + uint64(i)
		}
		frame = appendFrame(frame[:0], uint64(i), &templates[reqs[i].tmpl], trace)
		outs[i].sent = time.Since(start)
		if _, err := bws[c].Write(frame); err != nil {
			failed[c] = true
		}
	}
	flush()
}

// closedStats is what a closed loop measured: when each answered request
// completed, relative to the loop's start, and the tally of every request
// sent.
type closedStats struct {
	done  []time.Duration
	tally tally
}

// runClosedStream keeps up to window requests in flight on each connection
// for d. Each connection's sender refills its window as responses free it,
// so the completion rate is what the server sustains:
// there is no offered rate for it to exceed and no backlog to grow. The
// templates come from pick, drawing from a generator seeded with seed plus
// the connection's index, and a request's id carries its template index.
// When d is up each sender stops and waits up to drain for its requests in
// flight; those not answered by then are timeouts.
func runClosedStream(conns []net.Conn, templates []streamTemplate, pick func(*rand.Rand) int32, seed int64, window int, d, drain time.Duration) closedStats {
	start := time.Now()
	per := make([]closedStats, len(conns))
	var wg sync.WaitGroup
	for c, conn := range conns {
		wg.Add(1)
		go func(c int, conn net.Conn) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			per[c] = closedConn(conn, templates, pick, rng, window, start, d, drain)
		}(c, conn)
	}
	wg.Wait()
	var out closedStats
	for _, p := range per {
		out.done = append(out.done, p.done...)
		out.tally.add(p.tally)
	}
	return out
}

// closedConn is one connection of a closed loop: a sender that must hold
// one of window slots for each request it writes, and a reader that frees a
// slot for each response. Once the window is full the sender waits until
// half of it is free and then refills it, so between window/2 and window
// requests are in flight. It closes conn before it returns.
func closedConn(conn net.Conn, templates []streamTemplate, pick func(*rand.Rand) int32, rng *rand.Rand, window int, start time.Time, d, drain time.Duration) closedStats {
	slots := make(chan struct{}, window)
	readerDone := make(chan struct{})
	var st closedStats // the reader's until readerDone is closed
	var answered int64
	go func() {
		defer close(readerDone)
		br := bufio.NewReaderSize(conn, 64<<10)
		var buf []byte
		for {
			id, status, payload, b, err := readResponse(br, buf)
			buf = b
			if err != nil {
				return
			}
			tmpl := id & 0xffff
			select {
			case <-slots:
			default:
				tmpl = uint64(len(templates)) // nothing was in flight
			}
			if tmpl >= uint64(len(templates)) {
				st.tally.Errors++ // a response this loop never asked for: the stream is out of sync
				return
			}
			st.done = append(st.done, time.Since(start))
			answered++
			switch {
			case status == statusOverld:
				st.tally.Shed++
			case status != statusOK:
				st.tally.Errors++
			case !bytes.Equal(payload, templates[tmpl].want):
				st.tally.Mismatches++
			}
		}
	}()

	bw := bufio.NewWriterSize(conn, 64<<10)
	stop := time.NewTimer(time.Until(start.Add(d)))
	defer stop.Stop()
	refill := max(window/2, 1)
	held := 0 // slots taken for requests not yet written
	var frame []byte
	var sent int64
	failed := false
send:
	for time.Since(start) < d {
		if held == 0 {
			select {
			case slots <- struct{}{}:
				held = 1
			default:
				// Every slot is in flight: send what is buffered, then wait
				// until half the window is free. Refilling in batches keeps
				// the client's system calls per request few, so that the
				// server's capacity, not the client's, sets the rate.
				if bw.Flush() != nil {
					failed = true
					break send
				}
				for held < refill {
					select {
					case slots <- struct{}{}:
						held++
					case <-readerDone:
						break send
					case <-stop.C:
						break send
					}
				}
			}
		}
		t := pick(rng)
		frame = appendFrame(frame[:0], uint64(sent)<<16|uint64(t), &templates[t], 0)
		if _, err := bw.Write(frame); err != nil {
			failed = true
			break
		}
		sent++
		held--
	}
	for ; held > 0; held-- {
		<-slots
	}
	if !failed && bw.Flush() != nil {
		failed = true
	}
	// The sender holds every slot again once every request in flight has
	// been answered.
	wait := time.NewTimer(drain)
	defer wait.Stop()
drain:
	for i := 0; i < window && !failed; i++ {
		select {
		case slots <- struct{}{}:
		case <-readerDone:
			break drain
		case <-wait.C:
			break drain
		}
	}
	conn.Close()
	<-readerDone
	st.tally.Attempted = sent
	if failed {
		st.tally.Errors += sent - answered
	} else {
		st.tally.Timeouts += sent - answered
	}
	return st
}

// loopStats summarises a loop's outcomes: latency from each request's due
// time, sender lateness, and the failure tally. Failed requests have no
// latency sample.
type loopStats struct {
	latUs, lateUs []float64
	tally         tally
}

func summarizeLoop(reqs []plannedReq, outs []outcome) loopStats {
	var s loopStats
	for i, o := range outs {
		s.tally.add(outcomeTally(o.kind))
		s.lateUs = append(s.lateUs, us(o.sent-reqs[i].due))
		if o.kind == outOK {
			s.latUs = append(s.latUs, us(o.done-reqs[i].due))
		}
	}
	return s
}

// outcomeTally is one attempted request with the given outcome.
func outcomeTally(kind uint8) tally {
	t := tally{Attempted: 1}
	switch kind {
	case outOK:
	case outShed:
		t.Shed = 1
	case outMismatch:
		t.Mismatches = 1
	case outTimeout:
		t.Timeouts = 1
	default:
		t.Errors = 1
	}
	return t
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
