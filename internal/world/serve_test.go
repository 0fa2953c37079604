package world

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/httpsim"
	"repro/internal/simnet"
	"repro/internal/tlssim"
)

// wantResponse is the answer a site gives: status, the full header set
// (lower-cased keys) and body.
type wantResponse struct {
	status int
	header map[string]string
	body   []byte
}

// renderedPage is the landing page body: a title naming the host and one
// anchor per outbound link.
func renderedPage(s *Site) []byte {
	links := make([]string, 0, len(s.Links))
	for _, l := range s.Links {
		links = append(links, "http://"+l+"/")
	}
	return httpsim.RenderPage(fmt.Sprintf("Official website — %s", s.Hostname), links)
}

func framed(status int, body []byte, extra ...string) wantResponse {
	h := map[string]string{
		"content-length": strconv.Itoa(len(body)),
		"connection":     "close",
	}
	for i := 0; i+1 < len(extra); i += 2 {
		h[extra[i]] = extra[i+1]
	}
	return wantResponse{status: status, header: h, body: body}
}

func pageResponse(s *Site, https bool) wantResponse {
	if https && s.HSTS {
		return framed(200, renderedPage(s), "content-type", "text/html",
			"strict-transport-security", "max-age=31536000; includeSubDomains; preload")
	}
	return framed(200, renderedPage(s), "content-type", "text/html")
}

// fetch GETs path from the site over http or https.
func fetch(t *testing.T, w *World, s *Site, https bool, path string) *httpsim.Response {
	t.Helper()
	port := uint16(80)
	if https {
		port = 443
	}
	conn, err := w.Net.Dial(context.Background(), "lab", netip.AddrPortFrom(s.IP, port))
	if err != nil {
		t.Fatalf("%s: dial %d: %v", s.Hostname, port, err)
	}
	defer conn.Close()
	if https {
		tc, err := tlssim.ClientHandshake(conn, tlssim.DefaultClientConfig(s.Hostname))
		if err != nil {
			t.Fatalf("%s: handshake: %v", s.Hostname, err)
		}
		resp, err := httpsim.Get(tc, s.Hostname, path)
		if err != nil {
			t.Fatalf("%s: https get: %v", s.Hostname, err)
		}
		return resp
	}
	resp, err := httpsim.Get(conn, s.Hostname, path)
	if err != nil {
		t.Fatalf("%s: http get: %v", s.Hostname, err)
	}
	return resp
}

func checkResponse(t *testing.T, what string, got *httpsim.Response, want wantResponse) {
	t.Helper()
	h := make(map[string]string, len(got.Header))
	for _, f := range got.Header {
		if _, dup := h[f.Key]; dup {
			t.Errorf("%s: header %q sent twice", what, f.Key)
		}
		h[f.Key] = f.Value
	}
	if got.StatusCode != want.status || !reflect.DeepEqual(h, want.header) || !bytes.Equal(got.Body, want.body) {
		t.Errorf("%s:\n got %d %v %q\nwant %d %v %q", what,
			got.StatusCode, h, got.Body, want.status, want.header, want.body)
	}
}

// TestServedResponsesMatchRendering: for sampled sites of every serving
// kind, the http 200, https 200, 301, 503 and challenge answers parse to
// the status, header set, Location and body the site always served. HSTS
// appears exactly on https responses of HSTS sites.
func TestServedResponsesMatchRendering(t *testing.T) {
	w := testWorld
	const perKind = 4
	sampled := map[Serving]int{}
	hsts := map[bool]int{}
	hosts := append(append([]string(nil), w.GovHosts...), w.UnreachableHosts...)
	for _, host := range hosts {
		s, ok := w.Sites[host]
		if !ok || !s.IP.IsValid() || s.Fault != simnet.FaultNone || s.Quirk != tlssim.QuirkNone || sampled[s.Serving] >= perKind {
			continue
		}
		sampled[s.Serving]++
		switch s.Serving {
		case HTTPOnly, BothNoRedirect:
			checkResponse(t, s.Hostname+" http", fetch(t, w, s, false, "/"), pageResponse(s, false))
		case BothRedirect:
			checkResponse(t, s.Hostname+" 301", fetch(t, w, s, false, "/"),
				framed(301, []byte{}, "location", "https://"+s.Hostname+"/"))
		case Unavailable:
			checkResponse(t, s.Hostname+" 503", fetch(t, w, s, false, "/"),
				framed(503, []byte("service unavailable")))
		}
		if s.Serving.HasHTTPS() {
			hsts[s.HSTS]++
			checkResponse(t, s.Hostname+" https", fetch(t, w, s, true, "/"), pageResponse(s, true))
		}
	}
	for _, kind := range []Serving{HTTPOnly, HTTPSOnly, BothRedirect, BothNoRedirect, Unavailable} {
		if sampled[kind] == 0 {
			t.Errorf("no site of serving kind %d sampled", kind)
		}
	}
	// The HSTS header must be exercised both ways; sample on if the first
	// sites all fell on one side.
	for _, want := range []bool{true, false} {
		if hsts[want] > 0 {
			continue
		}
		s := findSite(w, func(s *Site) bool {
			return s.Serving.HasHTTPS() && s.HSTS == want && s.Fault == simnet.FaultNone && s.Quirk == tlssim.QuirkNone
		})
		if s == nil {
			t.Fatalf("no https site with HSTS=%v", want)
		}
		checkResponse(t, s.Hostname+" https", fetch(t, w, s, true, "/"), pageResponse(s, true))
	}
}

// TestChallengeResponseMatchesRendering: an active http-01 token answers
// 200 with the token as its body and no other headers, on a redirecting
// site and on an unavailable one.
func TestChallengeResponseMatchesRendering(t *testing.T) {
	w := acmeHookWorld(t)
	const token = "tok-000002-0-feedface"
	for _, kind := range []Serving{BothRedirect, Unavailable} {
		var s *Site
		for _, host := range append(append([]string(nil), w.GovHosts...), w.UnreachableHosts...) {
			if c, ok := w.Sites[host]; ok && c.IP.IsValid() && c.Serving == kind {
				s = c
				break
			}
		}
		if s == nil {
			t.Fatalf("no site of serving kind %d", kind)
		}
		if !w.SetChallenge(s.Hostname, token) {
			t.Fatalf("SetChallenge refused %s", s.Hostname)
		}
		checkResponse(t, s.Hostname+" challenge",
			fetch(t, w, s, false, "/.well-known/acme-challenge/"+token), framed(200, []byte(token)))
		w.ClearChallenge(s.Hostname)
	}
}
