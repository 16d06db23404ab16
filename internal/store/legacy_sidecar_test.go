package store

// Older builds kept a VP-tree metric index beside the postings and, on
// Compact, persisted its shape as a sidecar next to the base snapshot
// (idx.pqg.vpt, format "PQGV"). Such a store can still carry that file.
// The store no longer knows the format: it must neither read, rewrite nor
// delete the file, and a reopen must look exactly like one without it.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"sort"
	"testing"

	"pqgram/internal/forest"
	"pqgram/internal/fsio"
	"pqgram/internal/gen"
	"pqgram/internal/profile"
)

const legacySidecarPath = "idx.pqg.vpt"

// legacySidecar encodes a PQGV sidecar the way older builds wrote it:
//
//	"PQGV" | version 1 | baseCRC (4 bytes BE) | numNodes
//	numNodes × ( idLen | id | children | radius | szMin | szMax | inLo | inHi | outLo | outHi )
//	crc32-IEEE of everything above (4 bytes BE)
//
// The nodes form a chain of inside children whose routing ranges cover
// every bag size, which the old reader accepted as a dump of the base.
func legacySidecar(baseCRC uint32, ids []string) []byte {
	var b bytes.Buffer
	b.WriteString("PQGV")
	b.WriteByte(1)
	b.Write(binary.BigEndian.AppendUint32(nil, baseCRC))
	uv := func(v int) { b.Write(binary.AppendUvarint(nil, uint64(v))) }
	uv(len(ids))
	const wide = 1 << 20
	for i, id := range ids {
		uv(len(id))
		b.WriteString(id)
		var children byte
		if i+1 < len(ids) {
			children = 1 // inside child follows in preorder
		}
		b.WriteByte(children)
		for _, v := range []int{wide, 0, wide, 0, wide, 0, 0} {
			uv(v)
		}
	}
	b.Write(binary.BigEndian.AppendUint32(nil, crc32.ChecksumIEEE(b.Bytes())))
	return b.Bytes()
}

// watchFS records every path the store names in a filesystem call, so a
// test can tell that a file was never opened, statted, renamed or removed.
type watchFS struct {
	fsio.FS
	paths []string
}

func (w *watchFS) OpenFile(name string, flag int, perm os.FileMode) (fsio.File, error) {
	w.paths = append(w.paths, name)
	return w.FS.OpenFile(name, flag, perm)
}

func (w *watchFS) Rename(oldpath, newpath string) error {
	w.paths = append(w.paths, oldpath, newpath)
	return w.FS.Rename(oldpath, newpath)
}

func (w *watchFS) Remove(name string) error {
	w.paths = append(w.paths, name)
	return w.FS.Remove(name)
}

func (w *watchFS) Stat(name string) (os.FileInfo, error) {
	w.paths = append(w.paths, name)
	return w.FS.Stat(name)
}

// bruteTopK scores every document of f from its own bag and keeps the k
// nearest, ties by ID: the reference the store's top-k must equal.
func bruteTopK(f *forest.Index, q profile.Index, k int) []forest.Match {
	var out []forest.Match
	for _, id := range f.IDs() {
		out = append(out, forest.Match{TreeID: id, Distance: q.Distance(f.TreeIndex(id))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].TreeID < out[j].TreeID
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// checkSidecarIgnored builds and compacts a store, places the bytes
// sidecar returns beside it (none when sidecar is nil), and then checks
// that reopening reports a clean recovery, that top-k equals brute force,
// and that reopening, updating and compacting again never name the
// sidecar's path and leave its bytes as they were.
func checkSidecarIgnored(t *testing.T, sidecar func(baseCRC uint32, ids []string) []byte) {
	t.Helper()
	fs := fsio.NewMemFS()
	s, err := CreateStoreFS(fs, "idx.pqg", p33)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := s.Add(fmt.Sprintf("doc-%02d", i), gen.XMark(int64(500+i%4), 30+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	ids := s.Forest().IDs()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat(legacySidecarPath); err == nil {
		t.Fatal("Compact wrote a metric sidecar")
	}
	var want []byte
	if sidecar != nil {
		_, crc, err := loadFileCRC(fs, "idx.pqg")
		if err != nil {
			t.Fatal(err)
		}
		want = sidecar(crc, ids)
		if err := fsio.WriteFile(fs, legacySidecarPath, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	w := &watchFS{FS: fs}
	rs, err := OpenStoreFS(w, "idx.pqg")
	if err != nil {
		t.Fatalf("open beside a leftover sidecar: %v", err)
	}
	ri := rs.Recovery()
	ri.Duration = 0
	if ri != (RecoveryInfo{}) {
		t.Fatalf("recovery not clean: %+v", ri)
	}
	if err := rs.Forest().SelfCheck(); err != nil {
		t.Fatal(err)
	}
	q := profile.BuildIndex(gen.XMark(501, 40), p33)
	for _, k := range []int{1, 3, 100} {
		if got, want := rs.Forest().LookupIndexTopK(q, k), bruteTopK(rs.Forest(), q, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("top-%d diverges from brute force:\n got %v\nwant %v", k, got, want)
		}
	}
	if err := rs.Add("late", gen.XMark(777, 35)); err != nil {
		t.Fatal(err)
	}
	if err := rs.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range w.paths {
		if p == legacySidecarPath {
			t.Fatalf("the store touched %s", p)
		}
	}
	got, err := fsio.ReadFile(fs, legacySidecarPath)
	switch {
	case sidecar == nil && err == nil:
		t.Fatal("a sidecar appeared")
	case sidecar != nil && (err != nil || !bytes.Equal(got, want)):
		t.Fatalf("sidecar changed: %d bytes, err %v; want the %d bytes written", len(got), err, len(want))
	}
}

// TestLegacyMetricSidecarIgnored leaves a well-formed sidecar, bound to
// the current base, beside the store: the kind an older build restored
// on open. It must be ignored like any other file.
func TestLegacyMetricSidecarIgnored(t *testing.T) {
	checkSidecarIgnored(t, legacySidecar)
}

// TestMetricSidecarStaleAndCorrupt leaves damaged sidecars beside the
// store: one bound to another base, one with a flipped byte, one cut off
// mid-node, and bytes in no known format. Every one is ignored.
func TestMetricSidecarStaleAndCorrupt(t *testing.T) {
	cases := []struct {
		name    string
		sidecar func(baseCRC uint32, ids []string) []byte
	}{
		{"stale-base", func(crc uint32, ids []string) []byte { return legacySidecar(crc^0xff, ids) }},
		{"flipped-byte", func(crc uint32, ids []string) []byte {
			data := legacySidecar(crc, ids)
			data[len(data)/2] ^= 0x40
			return data
		}},
		{"truncated", func(crc uint32, ids []string) []byte {
			data := legacySidecar(crc, ids)
			return data[:len(data)*2/3]
		}},
		{"junk", func(uint32, []string) []byte { return []byte("not a sidecar\x00\xff") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkSidecarIgnored(t, tc.sidecar) })
	}
}

// TestMetricSidecarAbsent pins the common path: Compact writes no
// sidecar, and a reopen reports a clean recovery.
func TestMetricSidecarAbsent(t *testing.T) {
	checkSidecarIgnored(t, nil)
}
