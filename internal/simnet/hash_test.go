package simnet

import (
	"bytes"
	"net/netip"
	"testing"
)

// TestAppendEndpointMatchesMarshalBinary: the allocation-free encoding
// must be byte-for-byte AddrPort.MarshalBinary, or every seeded fault draw
// and retry jitter would shift.
func TestAppendEndpointMatchesMarshalBinary(t *testing.T) {
	for _, ep := range []netip.AddrPort{
		{},
		netip.MustParseAddrPort("192.0.2.7:443"),
		netip.MustParseAddrPort("0.0.0.0:0"),
		netip.MustParseAddrPort("[2001:db8::1]:443"),
		netip.MustParseAddrPort("[::ffff:192.0.2.7]:80"),
		netip.MustParseAddrPort("[fe80::1%eth0]:8443"),
	} {
		want, err := ep.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendEndpoint(nil, ep); !bytes.Equal(got, want) {
			t.Errorf("AppendEndpoint(%v) = %x, MarshalBinary = %x", ep, got, want)
		}
	}
}

// TestDialChancePinned pins FaultProb draws computed by the
// MarshalBinary-based encoding, and checks the draw allocates nothing.
func TestDialChancePinned(t *testing.T) {
	for _, c := range []struct {
		seed int64
		ep   string
		seq  int64
		want float64
	}{
		{42, "192.0.2.7:443", 0, 0.7912868385394107},
		{42, "192.0.2.7:443", 1, 0.28229468234877886},
		{-9, "198.51.100.20:80", 3, 0.16116406411285378},
		{7, "[2001:db8::1]:443", 2, 0.9622419229658985},
		{7, "[fe80::1%eth0]:8443", 5, 0.9030087018437637},
	} {
		if got := dialChance(c.seed, netip.MustParseAddrPort(c.ep), c.seq); got != c.want {
			t.Errorf("dialChance(%d, %s, %d) = %v, want %v", c.seed, c.ep, c.seq, got, c.want)
		}
	}
	if got := dialChance(1, netip.AddrPort{}, 0); got != 0.6559068897807453 {
		t.Errorf("dialChance on the zero endpoint = %v", got)
	}
	ep := netip.MustParseAddrPort("192.0.2.7:443")
	if n := testing.AllocsPerRun(100, func() { dialChance(42, ep, 1) }); n != 0 {
		t.Errorf("dialChance allocates %v times per call, want 0", n)
	}
}
