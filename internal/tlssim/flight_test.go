package tlssim_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/netip"
	"strings"
	"testing"

	"repro/internal/simnet"
	"repro/internal/tlssim"
	"repro/internal/world"
)

// flightWorldConfig builds the small world the flight tests draw a
// healthy https site from.
var flightWorldConfig = world.Config{Seed: 42, Scale: 0.005}

// recordingConn tees everything read from the wrapped conn.
type recordingConn struct {
	net.Conn
	got bytes.Buffer
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.got.Write(p[:n])
	return n, err
}

// healthySite returns a world site whose https endpoint completes the
// handshake.
func healthySite(t testing.TB, w *world.World) *world.Site {
	t.Helper()
	for _, h := range w.GovHosts {
		s := w.Sites[h]
		if s.Injected == world.ClassValid && s.Serving.HasHTTPS() {
			return s
		}
	}
	t.Fatal("no valid https site in the world")
	return nil
}

// serverFlight returns the bytes a world site sends during a successful
// handshake: ServerHello, Certificate and Finished records.
func serverFlight(t testing.TB, w *world.World, s *world.Site) []byte {
	t.Helper()
	conn, err := w.Net.Dial(context.Background(), "lab", netip.AddrPortFrom(s.IP, 443))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rec := &recordingConn{Conn: conn}
	if _, err := tlssim.ClientHandshake(rec, tlssim.DefaultClientConfig(s.Hostname)); err != nil {
		t.Fatal(err)
	}
	return rec.got.Bytes()
}

// worldFlight returns the server flight of the flight world's first
// healthy site, and that site's hostname.
func worldFlight(t testing.TB) ([]byte, string) {
	w := world.MustBuild(flightWorldConfig)
	s := healthySite(t, w)
	return serverFlight(t, w, s), s.Hostname
}

// TestTruncatedFlightErrors cuts a world site's server flight at every
// byte offset (simnet.FaultTruncate) and checks the client's error: it
// names the message being read, and is io.EOF when the cut falls before
// any byte of a record header or payload, io.ErrUnexpectedEOF inside one.
// A cut at the end of the flight lets the handshake complete.
func TestTruncatedFlightErrors(t *testing.T) {
	w := world.MustBuild(flightWorldConfig)
	s := healthySite(t, w)
	flight := serverFlight(t, w, s)

	// Record layout of the flight.
	type span struct {
		start, payload, end int
		msg                 string
	}
	var spans []span
	r := bytes.NewReader(flight)
	for _, msg := range []string{"ServerHello", "Certificate", "Finished"} {
		start := len(flight) - r.Len()
		if _, _, _, err := tlssim.ReadRecord(r); err != nil {
			t.Fatalf("flight record %s: %v", msg, err)
		}
		spans = append(spans, span{start, start + 5, len(flight) - r.Len(), msg})
	}
	if r.Len() != 0 {
		t.Fatalf("flight has %d bytes after Finished", r.Len())
	}

	ep := netip.AddrPortFrom(s.IP, 443)
	for cut := 0; cut <= len(flight); cut++ {
		w.Net.SetFaultSpec(ep, simnet.FaultSpec{Mode: simnet.FaultTruncate, TruncateBytes: cut})
		conn, err := w.Net.Dial(context.Background(), "lab", ep)
		if err != nil {
			t.Fatal(err)
		}
		_, err = tlssim.ClientHandshake(conn, tlssim.DefaultClientConfig(s.Hostname))
		conn.Close()
		if cut == len(flight) {
			if err != nil {
				t.Errorf("cut at the end of the flight: %v", err)
			}
			continue
		}
		var sp span
		for _, sp = range spans {
			if cut < sp.end {
				break
			}
		}
		want := io.ErrUnexpectedEOF
		if cut == sp.start || cut == sp.payload {
			want = io.EOF
		}
		if !errors.Is(err, want) || !strings.HasPrefix(err.Error(), "tlssim: reading "+sp.msg+": ") {
			t.Errorf("cut at %d (in %s): err = %v, want %v while reading %s", cut, sp.msg, err, want, sp.msg)
		}
	}
}

// FuzzReadRecord: any input either yields a record whose payload is the
// declared length of bytes following the header, or fails with EOF or
// unexpected EOF.
func FuzzReadRecord(f *testing.F) {
	flight, _ := worldFlight(f)
	f.Add(flight)
	f.Add(flight[:8])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, ver, payload, err := tlssim.ReadRecord(bytes.NewReader(data))
		if err != nil {
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		n := int(data[3])<<8 | int(data[4])
		if typ != data[0] || ver != tlssim.Version(data[1])<<8|tlssim.Version(data[2]) ||
			len(payload) != n || !bytes.Equal(payload, data[5:5+n]) {
			t.Fatalf("record = (%d, %v, %d bytes), input header % x", typ, ver, len(payload), data[:5])
		}
	})
}

// FuzzClientHandshake feeds arbitrary server bytes to the client side of
// the handshake: it must fail cleanly or return a usable connection, never
// panic or hang.
func FuzzClientHandshake(f *testing.F) {
	flight, host := worldFlight(f)
	f.Add(flight)
	f.Add(flight[:len(flight)/2])
	f.Add([]byte{21, 3, 1, 0, 2, 2, 80})
	// A garbage record version, and a certificate chain with a flipped
	// byte mid-payload.
	bad := append([]byte(nil), flight...)
	bad[1], bad[2] = 0x4a, 0x4a
	f.Add(bad)
	bad = append([]byte(nil), flight...)
	bad[len(bad)/2] ^= 0xff
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		client, server := simnet.Pipe(
			simnet.Addr{AP: netip.MustParseAddrPort("10.0.0.1:5000")},
			simnet.Addr{AP: netip.MustParseAddrPort("192.0.2.1:443")},
		)
		server.Write(data)
		server.Close()
		c, err := tlssim.ClientHandshake(client, tlssim.DefaultClientConfig(host))
		if err == nil {
			st := c.ConnectionState()
			if st.ServerName != host {
				t.Fatalf("ServerName = %q", st.ServerName)
			}
		}
		client.Close()
	})
}
