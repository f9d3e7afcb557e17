package qaindex

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeLegacy writes the oracle index over docs as a single-file
// snapshot in dir and returns its path.
func writeLegacy(t *testing.T, dir string, docs []Doc) string {
	t.Helper()
	path := filepath.Join(dir, "objects.idx.gz")
	if err := legacyFromDocs(docs).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestIndexRoundTrip: a snapshot from the legacy writer reads back as the
// same documents in the same order, and the index Open builds from it
// ranks exactly as the oracle did before the write.
func TestIndexRoundTrip(t *testing.T) {
	docs := seedDocs()
	path := writeLegacy(t, t.TempDir(), docs)
	got, err := readSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, docs) {
		t.Fatalf("read %+v, want %+v", got, docs)
	}
	ix, err := Open(path, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"digital camera", "black", "guitar piano"} {
		requireSameHits(t, "q="+q, legacyFromDocs(docs).Search(q, 5), ix.Search(q, 5))
	}
}

// TestIndexFileRoundTrip: Open serves a snapshot file with every
// document.
func TestIndexFileRoundTrip(t *testing.T) {
	docs := synthCorpus(40, 5)
	ix, err := Open(writeLegacy(t, t.TempDir(), docs), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != len(docs) || ix.Shards() != 3 {
		t.Errorf("opened %d docs / %d shards", ix.Len(), ix.Shards())
	}
}

func TestIndexReadGarbage(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.gz")
	if err := os.WriteFile(garbage, []byte("not a gzip stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readSnapshotFile(garbage); err == nil {
		t.Error("read accepted garbage")
	}
	if _, err := Open(garbage, 1, 1); err == nil {
		t.Error("Open accepted garbage")
	}
	if _, err := readSnapshotFile(filepath.Join(dir, "absent.gz")); err == nil {
		t.Error("read accepted missing file")
	}
}

func TestIndexWriteEmpty(t *testing.T) {
	path := writeLegacy(t, t.TempDir(), nil)
	got, err := readSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty index round trip read %d docs", len(got))
	}
	ix, err := Open(path, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 0 || ix.Search("anything", 3) != nil {
		t.Errorf("empty snapshot opened as %v", ix)
	}
}
