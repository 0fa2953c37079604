package scanner

import (
	"net/netip"
	"testing"
	"time"
)

// TestBackoffPinned pins retry delays computed by the MarshalBinary-based
// jitter hash, and checks the computation allocates nothing.
func TestBackoffPinned(t *testing.T) {
	s := &Scanner{Cfg: Config{Seed: 42, BackoffBase: 500 * time.Millisecond, BackoffMax: 8 * time.Second}}
	for _, c := range []struct {
		ep      string
		attempt int
		want    time.Duration
	}{
		{"192.0.2.7:443", 0, 645643419},
		{"192.0.2.7:443", 1, 782294682},
		{"198.51.100.20:80", 2, 1798573711},
		{"[2001:db8::1]:443", 3, 5191317177},
		{"192.0.2.7:443", 40, 8680916002},
	} {
		if got := s.backoff(netip.MustParseAddrPort(c.ep), c.attempt); got != c.want {
			t.Errorf("backoff(%s, %d) = %d, want %d", c.ep, c.attempt, got, c.want)
		}
	}
	ep := netip.MustParseAddrPort("192.0.2.7:443")
	if n := testing.AllocsPerRun(100, func() { s.backoff(ep, 2) }); n != 0 {
		t.Errorf("backoff allocates %v times per call, want 0", n)
	}
}
