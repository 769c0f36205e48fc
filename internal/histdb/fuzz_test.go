package histdb

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRecoverPair attacks the one pair reader with arbitrary snapshot and
// log bytes (an empty slice stands for a missing file). Whatever they are,
// recovery either refuses them with a hard error or accounts for every
// newline-terminated log line — as the header, as a record the snapshot
// already holds, or as a recovered record: never a panic, never a silently
// shortened log. And recovering what recovery left behind (the torn tail
// truncated, a fresh header written) is a fixed point. The seed corpus is
// the data directory an older commit wrote, cut the ways a crash cuts it;
// plain `go test` runs the seeds.
func FuzzRecoverPair(f *testing.F) {
	fixture := filepath.Join("..", "serve", "testdata", "datadir", "fix.hist.json")
	snap, err := os.ReadFile(fixture)
	if err != nil {
		f.Fatal(err)
	}
	log, err := os.ReadFile(WalPath(fixture))
	if err != nil {
		f.Fatal(err)
	}
	header := bytes.IndexByte(log, '\n') + 1
	f.Add(snap, log)
	f.Add(snap, log[:len(log)-1])                               // torn tail: the last record lost its newline
	f.Add(snap, log[:len(log)-len(log)/3])                      // torn tail: cut mid-record
	f.Add(snap, log[:header])                                   // header only
	f.Add(snap, log[:header-1])                                 // torn header: no newline yet
	f.Add(snap, log[:header/2])                                 // torn header: cut mid-line
	f.Add(snap, []byte(nil))                                    // log missing
	f.Add([]byte(nil), log)                                     // snapshot lost: the log extends records that are gone
	f.Add(snap[:len(snap)/2], log)                              // torn snapshot
	f.Add(snap, append(log[:header:header], "{not json}\n"...)) // corrupt line, newline-terminated
	f.Add([]byte("[]"), []byte("{\"wal\":1,\"snapshot_len\":-3}\n"))

	f.Fuzz(func(t *testing.T, snapshot, log []byte) {
		base := filepath.Join(t.TempDir(), "h.json")
		for path, data := range map[string][]byte{base: snapshot, WalPath(base): log} {
			if len(data) > 0 {
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		v, verr := Verify(base)
		w, recs, err := OpenWALRecords(base, WALOptions{})
		if (verr == nil) != (err == nil) {
			t.Fatalf("Verify says %v, open says %v", verr, err)
		}
		if err != nil {
			return
		}
		defer w.Close()

		lines := bytes.Count(log, []byte("\n"))
		if got := v.LogRecords + v.SkippedRecords; got != max(lines-1, 0) {
			t.Fatalf("log has %d newline-terminated lines, recovery accounts for a header and %d records (%+v)", lines, got, v)
		}
		if want := int64(len(log) - 1 - bytes.LastIndexByte(log, '\n')); v.TornBytes != want {
			t.Fatalf("torn tail = %d bytes, want %d", v.TornBytes, want)
		}
		if len(recs) != v.SnapshotRecords+v.LogRecords || w.Len() != len(recs) {
			t.Fatalf("open returned %d records and counts %d, verify saw %+v", len(recs), w.Len(), v)
		}

		// Fixed point: the files recovery left behind recover to the same
		// records with nothing torn.
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		v2, err := Verify(base)
		if err != nil || v2.TornBytes != 0 || v2.SnapshotRecords+v2.LogRecords != len(recs) {
			t.Fatalf("second recovery: %+v, %v; first recovered %d records", v2, err, len(recs))
		}
		db, err := Load(base)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(append([]Record(nil), recs...)) // Records() copies the same way: empty is nil
		b, _ := json.Marshal(db.Records())
		if !bytes.Equal(a, b) {
			t.Fatal("second recovery returned different records")
		}
	})
}
