package qaindex

import (
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"os"
)

// The legacy single-file index format: a gzipped gob snapshot of the
// documents. It is read-only now — Open loads such a snapshot and builds
// a Sharded index over its documents, so old snapshots keep serving —
// and new indexes are written as segment directories (WriteDir).

type docSnapshot struct {
	SiteID     int
	SiteName   string
	ProbeQuery string
	PageURL    string
	Text       string
}

type indexSnapshot struct {
	Version int
	Docs    []docSnapshot
}

const indexVersion = 1

// readSnapshotFile loads the documents of a single-file snapshot at path,
// in the order they were indexed.
func readSnapshotFile(path string) ([]Doc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("qaindex: %w", err)
	}
	//thorlint:allow no-unchecked-error closing a read-only file cannot lose data
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("qaindex: decompress: %w", err)
	}
	//thorlint:allow no-unchecked-error read-side gzip close holds no state worth surfacing
	defer gz.Close()
	var snap indexSnapshot
	if err := gob.NewDecoder(gz).Decode(&snap); err != nil {
		return nil, fmt.Errorf("qaindex: decode: %w", err)
	}
	if snap.Version != indexVersion {
		return nil, fmt.Errorf("qaindex: unsupported format version %d", snap.Version)
	}
	docs := make([]Doc, len(snap.Docs))
	for i, d := range snap.Docs {
		docs[i] = Doc{
			SiteID: d.SiteID, SiteName: d.SiteName,
			ProbeQuery: d.ProbeQuery, PageURL: d.PageURL, Text: d.Text,
		}
	}
	return docs, nil
}
