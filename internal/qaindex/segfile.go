package qaindex

import (
	"compress/gzip"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Segment-file persistence: a Sharded index is written as a directory of
// versioned per-segment files plus a JSON manifest. Unlike the legacy
// single-file snapshot (persist.go), segment files store the posting
// lists directly — loading skips tokenization/stemming entirely, and a
// reader can stream one segment at a time (ForEachSegment) instead of
// holding the whole index, which is what makes indexes larger than RAM
// tractable. Block-max metadata is re-derived on load: it is a pure
// function of the postings and stays out of the format so block sizing
// can evolve without a version bump.

// segVersion is the segment-file format version.
const segVersion = 1

// ManifestName is the file marking a directory as a segmented index.
const ManifestName = "qaindex.manifest.json"

// Manifest is the JSON descriptor written beside the segment files. It
// is written after every segment file succeeds, so its presence marks a
// complete index.
type Manifest struct {
	Version  int `json:"version"`
	Segments int `json:"segments"`
	Docs     int `json:"docs"`
	TotalLen int `json:"total_len"`
}

type segSnapshot struct {
	Version  int
	Docs     []docSnapshot
	Lengths  []int32
	TotalLen int
	Terms    []string  // vocabulary in term-ID order
	PostDocs [][]int32 // per term-ID, ascending local doc IDs
	PostTFs  [][]int32 // parallel term frequencies
}

// segFileName names segment i's file inside an index directory.
func segFileName(i int) string { return fmt.Sprintf("seg-%05d.qaseg.gz", i) }

// WriteSegment serializes the segment to w (gzipped gob, versioned).
func (s *Segment) WriteSegment(w io.Writer) error {
	snap := segSnapshot{
		Version:  segVersion,
		Docs:     make([]docSnapshot, len(s.docs)),
		Lengths:  s.lengths,
		TotalLen: s.totalLen,
		Terms:    make([]string, len(s.terms)),
		PostDocs: make([][]int32, len(s.terms)),
		PostTFs:  make([][]int32, len(s.terms)),
	}
	for i, d := range s.docs {
		snap.Docs[i] = docSnapshot{
			SiteID: d.SiteID, SiteName: d.SiteName,
			ProbeQuery: d.ProbeQuery, PageURL: d.PageURL, Text: d.Text,
		}
	}
	for term, tid := range s.termIDs {
		snap.Terms[tid] = term
	}
	for tid := range s.terms {
		snap.PostDocs[tid] = s.terms[tid].docs
		snap.PostTFs[tid] = s.terms[tid].tfs
	}
	gz := gzip.NewWriter(w)
	encErr := gob.NewEncoder(gz).Encode(&snap)
	closeErr := gz.Close() // Close flushes; its error means truncated output
	if encErr != nil {
		return fmt.Errorf("qaindex: encode segment: %w", encErr)
	}
	if closeErr != nil {
		return fmt.Errorf("qaindex: compress segment: %w", closeErr)
	}
	return nil
}

// ReadSegment loads one segment written by WriteSegment, validating the
// version and the structural invariants the kernel depends on
// (parallel posting arrays, ascending in-range doc IDs) and re-deriving
// the block-max metadata.
func ReadSegment(r io.Reader) (*Segment, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("qaindex: decompress segment: %w", err)
	}
	//thorlint:allow no-unchecked-error read-side gzip close holds no state worth surfacing
	defer gz.Close()
	var snap segSnapshot
	if err := gob.NewDecoder(gz).Decode(&snap); err != nil {
		return nil, fmt.Errorf("qaindex: decode segment: %w", err)
	}
	if snap.Version != segVersion {
		return nil, fmt.Errorf("qaindex: unsupported segment version %d", snap.Version)
	}
	if len(snap.Lengths) != len(snap.Docs) {
		return nil, fmt.Errorf("qaindex: corrupt segment: %d docs, %d lengths", len(snap.Docs), len(snap.Lengths))
	}
	if len(snap.PostDocs) != len(snap.Terms) || len(snap.PostTFs) != len(snap.Terms) {
		return nil, fmt.Errorf("qaindex: corrupt segment: %d terms, %d/%d posting lists",
			len(snap.Terms), len(snap.PostDocs), len(snap.PostTFs))
	}
	s := &Segment{
		docs:     make([]*Document, len(snap.Docs)),
		lengths:  snap.Lengths,
		termIDs:  make(map[string]int32, len(snap.Terms)),
		terms:    make([]segPostings, len(snap.Terms)),
		totalLen: snap.TotalLen,
	}
	for i, d := range snap.Docs {
		s.docs[i] = &Document{
			SiteID: d.SiteID, SiteName: d.SiteName,
			ProbeQuery: d.ProbeQuery, PageURL: d.PageURL, Text: d.Text,
			length: int(snap.Lengths[i]),
		}
	}
	n := int32(len(s.docs))
	for tid, term := range snap.Terms {
		if _, dup := s.termIDs[term]; dup {
			return nil, fmt.Errorf("qaindex: corrupt segment: duplicate term %q", term)
		}
		docs, tfs := snap.PostDocs[tid], snap.PostTFs[tid]
		if len(docs) != len(tfs) || len(docs) == 0 {
			return nil, fmt.Errorf("qaindex: corrupt segment: term %q has %d docs, %d tfs", term, len(docs), len(tfs))
		}
		prev := int32(-1)
		for i, d := range docs {
			if d <= prev || d >= n {
				return nil, fmt.Errorf("qaindex: corrupt segment: term %q posting %d out of order or range", term, i)
			}
			if tfs[i] <= 0 {
				return nil, fmt.Errorf("qaindex: corrupt segment: term %q posting %d has tf %d", term, i, tfs[i])
			}
			prev = d
		}
		s.termIDs[term] = int32(tid)
		s.terms[tid] = segPostings{docs: docs, tfs: tfs}
	}
	s.finalize()
	return s, nil
}

// WriteDir persists the sharded index as dir/seg-*.qaseg.gz plus the
// manifest. The manifest is written last, so a crashed write leaves no
// directory that OpenDir would accept.
func (s *Sharded) WriteDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("qaindex: %w", err)
	}
	for i, seg := range s.segs {
		if err := writeSegFile(filepath.Join(dir, segFileName(i)), seg); err != nil {
			return err
		}
	}
	m := Manifest{Version: segVersion, Segments: len(s.segs), Docs: s.n, TotalLen: s.totalLen}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return fmt.Errorf("qaindex: manifest: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("qaindex: manifest: %w", err)
	}
	return nil
}

func writeSegFile(path string, seg *Segment) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("qaindex: %w", err)
	}
	werr := seg.WriteSegment(f)
	if cerr := f.Close(); werr == nil && cerr != nil {
		werr = fmt.Errorf("qaindex: %w", cerr)
	}
	return werr
}

// ReadManifest loads and validates an index directory's manifest.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("qaindex: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("qaindex: manifest: %w", err)
	}
	if m.Version != segVersion {
		return nil, fmt.Errorf("qaindex: unsupported manifest version %d", m.Version)
	}
	if m.Segments <= 0 {
		return nil, fmt.Errorf("qaindex: manifest declares %d segments", m.Segments)
	}
	return &m, nil
}

// ForEachSegment streams an index directory segment-at-a-time: fn
// receives each loaded segment in shard order and the previous one is
// released before the next loads, so peak memory is one segment — the
// larger-than-RAM path. fn returning an error stops the walk.
func ForEachSegment(dir string, fn func(i int, seg *Segment) error) error {
	m, err := ReadManifest(dir)
	if err != nil {
		return err
	}
	for i := 0; i < m.Segments; i++ {
		seg, err := readSegFile(filepath.Join(dir, segFileName(i)))
		if err != nil {
			return err
		}
		if err := fn(i, seg); err != nil {
			return err
		}
	}
	return nil
}

func readSegFile(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("qaindex: %w", err)
	}
	//thorlint:allow no-unchecked-error closing a read-only file cannot lose data
	defer f.Close()
	return ReadSegment(f)
}

// OpenDir loads a complete sharded index from a directory written by
// WriteDir, cross-checking the manifest's document count.
func OpenDir(dir string) (*Sharded, error) {
	s := &Sharded{}
	err := ForEachSegment(dir, func(_ int, seg *Segment) error {
		s.segs = append(s.segs, seg)
		s.n += len(seg.docs)
		s.totalLen += seg.totalLen
		return nil
	})
	if err != nil {
		return nil, err
	}
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	if s.n != m.Docs || s.totalLen != m.TotalLen {
		return nil, fmt.Errorf("qaindex: manifest/segment mismatch: %d/%d docs, %d/%d tokens",
			m.Docs, s.n, m.TotalLen, s.totalLen)
	}
	return s, nil
}

// Open loads a search index from path in either on-disk format: a
// segment directory (WriteDir) loads directly; a legacy single-file gob
// snapshot (persist.go, read-only) is read and resharded into `shards`
// segments with `workers` builders — the migration path that keeps old
// snapshots serving.
func Open(path string, shards, workers int) (*Sharded, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("qaindex: %w", err)
	}
	if info.IsDir() {
		return OpenDir(path)
	}
	docs, err := readSnapshotFile(path)
	if err != nil {
		return nil, err
	}
	return BuildSharded(docs, shards, workers), nil
}
