package repl

import (
	"testing"

	"github.com/lpd-epfl/mvtl/internal/timestamp"
)

func TestDirectorPromote(t *testing.T) {
	d := NewDirector([][]string{{"a", "a1"}, {"b", "b1", "b2"}})
	if got := d.Partitions(); got != 2 {
		t.Fatalf("partitions = %d, want 2", got)
	}
	v := d.View(0)
	if v.Epoch != 1 || v.Head != "a" || len(v.Standbys) != 1 || v.Standbys[0] != "a1" {
		t.Fatalf("initial view = %+v", v)
	}

	v, err := d.Promote(0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Epoch != 2 || v.Head != "a1" || len(v.Standbys) != 0 {
		t.Fatalf("promoted view = %+v", v)
	}
	if _, err := d.Promote(0); err == nil {
		t.Fatal("promote with no standby should fail")
	}

	v = d.AddStandby(0, "a")
	if v.Epoch != 2 || v.Head != "a1" || len(v.Standbys) != 1 || v.Standbys[0] != "a" {
		t.Fatalf("rejoined view = %+v", v)
	}
	// An address the view already lists, as standby or head, is not
	// listed again.
	d.AddStandby(0, "a")
	if v = d.AddStandby(0, "a1"); v.Epoch != 2 || v.Head != "a1" || len(v.Standbys) != 1 || v.Standbys[0] != "a" {
		t.Fatalf("view after re-adding listed addresses = %+v", v)
	}

	// Partition 1 is untouched.
	if v := d.View(1); v.Epoch != 1 || v.Head != "b" {
		t.Fatalf("partition 1 view = %+v", v)
	}
	v, err = d.Promote(1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Head != "b1" || len(v.Standbys) != 1 || v.Standbys[0] != "b2" {
		t.Fatalf("partition 1 promoted view = %+v", v)
	}
}

func ts(n int64) timestamp.Timestamp { return timestamp.New(n, 0) }

func TestLogAppendFrom(t *testing.T) {
	l := NewLog(0)
	if got := l.NextLSN(); got != 1 {
		t.Fatalf("fresh NextLSN = %d, want 1", got)
	}
	for i := int64(1); i <= 5; i++ {
		if lsn := l.Append("k", ts(i), []byte{byte(i)}); lsn != uint64(i) {
			t.Fatalf("append %d assigned LSN %d", i, lsn)
		}
	}
	recs, next, trimmed := l.From(nil, 3, 0)
	if trimmed || next != 6 || len(recs) != 3 || recs[0].LSN != 3 || recs[2].LSN != 5 {
		t.Fatalf("From(3) = %v next=%d trimmed=%v", recs, next, trimmed)
	}
	recs, next, trimmed = l.From(recs[:0], 6, 0)
	if trimmed || next != 6 || len(recs) != 0 {
		t.Fatalf("From(6) = %v next=%d trimmed=%v", recs, next, trimmed)
	}
	// max caps the batch.
	recs, _, _ = l.From(nil, 1, 2)
	if len(recs) != 2 || recs[1].LSN != 2 {
		t.Fatalf("From(1, max 2) = %v", recs)
	}
}

func TestLogTrim(t *testing.T) {
	l := NewLog(3)
	for i := int64(1); i <= 10; i++ {
		l.Append("k", ts(i), nil)
	}
	if _, next, trimmed := l.From(nil, 1, 0); !trimmed || next != 11 {
		t.Fatalf("pull below trim point: trimmed=%v next=%d", trimmed, next)
	}
	recs, _, trimmed := l.From(nil, 8, 0)
	if trimmed || len(recs) != 3 || recs[0].LSN != 8 {
		t.Fatalf("From(8) = %v trimmed=%v", recs, trimmed)
	}
}

func TestLogAppendAt(t *testing.T) {
	l := NewLog(0)
	// A snapshot-joined standby anchors mid-stream.
	if err := l.AppendAt(40, "k", ts(1), nil); err != nil {
		t.Fatal(err)
	}
	if got := l.NextLSN(); got != 41 {
		t.Fatalf("NextLSN after anchor = %d, want 41", got)
	}
	// Duplicates of the snapshot/tail overlap are dropped.
	if err := l.AppendAt(40, "k", ts(1), nil); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendAt(41, "k", ts(2), nil); err != nil {
		t.Fatal(err)
	}
	if got := l.NextLSN(); got != 42 {
		t.Fatalf("NextLSN = %d, want 42", got)
	}
	// Gaps are errors.
	if err := l.AppendAt(50, "k", ts(3), nil); err == nil {
		t.Fatal("gap not detected")
	}
}
