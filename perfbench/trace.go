package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"repro/internal/scanner"
)

// Span names. A span is recorded at a layer boundary, around a call from
// this package into a module's public function (or, for dnssim and simnet,
// around the call the scanner makes through the wrapped interface).
const (
	spanScan       = iota // scanner.Scanner.Scan of one host
	spanLookup            // dnssim lookup through scanner.Resolver
	spanDial              // simnet dial through scanner.Dialer
	spanRequest           // one serve request (from due time to response)
	spanHandler           // serve handler call
	spanDataset           // dataset.Registry.Get
	spanExperiment        // core.RunExperiment
	spanFleet             // core.Study.FleetReport
	spanPatch             // writer's MarkDirty→Get
	spanObserve           // observatory.Observatory.Run
	spanResultset         // resultset.New
	spanVerify            // verify.Verifier.Verify pass
)

var spanNames = []string{
	"scanner.scan", "dnssim.lookup", "simnet.dial", "serve.request", "serve.handler",
	"dataset.get", "core.experiment", "acmefleet.fleet_report", "dataset.patch",
	"observatory.run", "resultset.new", "verify.verify",
}

// span is one recorded interval. Times are nanoseconds since the
// recorder's base; parent indexes the same buffer (-1 for a root); id
// identifies the host or request the span belongs to; child is the time
// the span's children covered, so self time is end-start-child.
type span struct {
	name   uint8
	parent int32
	id     int64
	start  int64
	end    int64
	child  int64
}

// spanBuf is one goroutine's span buffer: each worker records into its
// own buffer without locking, and the buffers are merged when the traced
// pass ends.
type spanBuf struct {
	base  time.Time
	spans []span
	// cur is the open root span the wrappers attribute children to.
	cur int32
	// Layer counters, summed over the buffer's lifetime.
	lookups, dials       int64
	lookupBusy, dialBusy time.Duration
	readWait             time.Duration
	bytes                int64
}

func newSpanBuf(base time.Time) *spanBuf { return &spanBuf{base: base, cur: -1} }

func (b *spanBuf) offset(t time.Time) int64 { return int64(t.Sub(b.base)) }

// open starts a root span and makes it current.
func (b *spanBuf) open(name uint8, id int64, start time.Time) {
	b.spans = append(b.spans, span{name: name, parent: -1, id: id, start: b.offset(start)})
	b.cur = int32(len(b.spans) - 1)
}

// close ends the current root span.
func (b *spanBuf) close(end time.Time) {
	b.spans[b.cur].end = b.offset(end)
	b.cur = -1
}

// child records a completed child of the current root span.
func (b *spanBuf) child(name uint8, start, end time.Time) {
	var id int64
	if b.cur >= 0 {
		id = b.spans[b.cur].id
		b.spans[b.cur].child += int64(end.Sub(start))
	}
	b.spans = append(b.spans, span{name: name, parent: b.cur, id: id, start: b.offset(start), end: b.offset(end)})
}

// record appends a complete root span.
func (b *spanBuf) record(name uint8, id int64, start, end time.Time) {
	b.spans = append(b.spans, span{name: name, parent: -1, id: id, start: b.offset(start), end: b.offset(end)})
}

// readWaitChild charges time blocked in a conn Read to the current span
// without recording a span per read.
func (b *spanBuf) readWaitChild(d time.Duration) {
	b.readWait += d
	if b.cur >= 0 {
		b.spans[b.cur].child += int64(d)
	}
}

// tracedResolver wraps the scanner's DNS resolver, keeping the
// allocation-free first-address fast path the scanner prefers.
type tracedResolver struct {
	inner scanner.Resolver
	buf   *spanBuf
}

func (r *tracedResolver) LookupA(hostname string) ([]netip.Addr, error) {
	t := now()
	addrs, err := r.inner.LookupA(hostname)
	r.done(t)
	return addrs, err
}

func (r *tracedResolver) LookupFirstA(hostname string) (netip.Addr, error) {
	t := now()
	addr, err := scanner.FirstA(r.inner, hostname)
	r.done(t)
	return addr, err
}

func (r *tracedResolver) done(t time.Time) {
	end := now()
	r.buf.lookups++
	r.buf.lookupBusy += end.Sub(t)
	r.buf.child(spanLookup, t, end)
}

// tracedDialer wraps the scanner's network dialer and the connections it
// returns.
type tracedDialer struct {
	inner scanner.Dialer
	buf   *spanBuf
}

func (d *tracedDialer) Dial(ctx context.Context, from string, ep netip.AddrPort) (net.Conn, error) {
	t := now()
	c, err := d.inner.Dial(ctx, from, ep)
	end := now()
	d.buf.dials++
	d.buf.dialBusy += end.Sub(t)
	d.buf.child(spanDial, t, end)
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, buf: d.buf}, nil
}

// tracedConn times how long the scanner blocks in Read waiting on the
// simulated server goroutine, and counts the bytes either way.
type tracedConn struct {
	net.Conn
	buf *spanBuf
}

func (c *tracedConn) Read(p []byte) (int, error) {
	t := now()
	n, err := c.Conn.Read(p)
	c.buf.readWaitChild(now().Sub(t))
	c.buf.bytes += int64(n)
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.buf.bytes += int64(n)
	return n, err
}

// writeSpans writes every buffer's spans to dir/<file> as tab-separated
// lines: name, id, parent (file-wide line index, -1 for roots), start and
// end in nanoseconds since the pass began, and self time.
func writeSpans(dir, file string, bufs []*spanBuf) (string, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "name\tid\tparent\tstart_ns\tend_ns\tself_ns")
	total := 0
	for _, b := range bufs {
		off := int32(total)
		for _, s := range b.spans {
			parent := s.parent
			if parent >= 0 {
				parent += off
			}
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", spanNames[s.name], s.id, parent, s.start, s.end, s.end-s.start-s.child)
		}
		total += len(b.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", 0, err
	}
	return path, total, f.Close()
}
