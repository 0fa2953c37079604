package scanner_test

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/scanner"
)

// TestScanAllInputOrder: the worker pool returns one result per hostname
// in input order, equal field for field to a one-worker scan.
func TestScanAllInputOrder(t *testing.T) {
	hosts := extWorld.GovHosts
	one := extScanner(extWorld)
	one.Cfg.Concurrency = 1
	want := one.ScanAll(context.Background(), hosts)

	got := extScanner(extWorld).ScanAll(context.Background(), hosts)
	if len(got) != len(hosts) {
		t.Fatalf("scanned %d results for %d hosts", len(got), len(hosts))
	}
	for i := range got {
		if got[i].Hostname != hosts[i] {
			t.Fatalf("result %d is %q, want input-order %q", i, got[i].Hostname, hosts[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("host %q: the worker pool and a one-worker scan disagree", hosts[i])
		}
	}
}

// TestScanAllCancelled: with the context already cancelled, every host
// still produces a placeholder row carrying its hostname, in order.
func TestScanAllCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hosts := extWorld.GovHosts[:min(64, len(extWorld.GovHosts))]
	got := extScanner(extWorld).ScanAll(ctx, hosts)
	if len(got) != len(hosts) {
		t.Fatalf("returned %d placeholders for %d hosts", len(got), len(hosts))
	}
	for i, h := range hosts {
		if !reflect.DeepEqual(got[i], scanner.Result{Hostname: h}) {
			t.Fatalf("result %d = %+v, want a placeholder for %q", i, got[i], h)
		}
	}
}

// TestScanAllDeterministic: two same-seed scans are identical — the order
// in which workers finish must not leak into the results.
func TestScanAllDeterministic(t *testing.T) {
	hosts := extWorld.GovHosts
	a := extScanner(extWorld).ScanAll(context.Background(), hosts)
	b := extScanner(extWorld).ScanAll(context.Background(), hosts)
	for i := range a {
		if a[i].Category() != b[i].Category() {
			t.Fatalf("host %q: %v then %v across same-seed runs", hosts[i], a[i].Category(), b[i].Category())
		}
	}
}

// TestScanAllRestoresJournalAfterCancel: a cancelled scan still restores
// every journaled host, wherever it sits in the list; only the hosts the
// journal lacks become placeholders. Resuming with a live context then
// scans exactly those hosts concurrently and completes the journal.
func TestScanAllRestoresJournalAfterCancel(t *testing.T) {
	hosts := extWorld.GovHosts[:32]
	baseline := extScanner(extWorld).ScanAll(context.Background(), hosts)

	j, err := scanner.OpenJournal(filepath.Join(t.TempDir(), "scan.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// Journal every odd-indexed host, so the first host is not journaled.
	for i := 1; i < len(hosts); i += 2 {
		if err := j.Append(baseline[i]); err != nil {
			t.Fatal(err)
		}
	}
	s := extScanner(extWorld)
	s.Cfg.Journal = j

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got := s.ScanAll(ctx, hosts)
	for i, h := range hosts {
		want := scanner.Result{Hostname: h}
		if i%2 == 1 {
			want = baseline[i]
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("host %d %q after cancel: journaled=%v, got a %v result", i, h, i%2 == 1, got[i].Category())
		}
	}
	if j.Len() != len(hosts)/2 {
		t.Fatalf("cancelled scan journaled %d hosts, want %d", j.Len(), len(hosts)/2)
	}

	resumed := s.ScanAll(context.Background(), hosts)
	if !reflect.DeepEqual(resumed, baseline) {
		t.Error("resumed scan differs from an uninterrupted one")
	}
	if j.Len() != len(hosts) {
		t.Errorf("journal holds %d hosts after resume, want %d", j.Len(), len(hosts))
	}
}
