package store

import (
	"encoding/json"
	"fmt"
	"os"
)

// The manifest is the store's commit point: a small JSON file naming the
// committed segments in order, the tombstoned ids, and the id/segment
// counters. It is always installed whole via rename, so after any crash the
// directory holds either the old manifest or the new one — segment files
// not named by the installed manifest are uncommitted leftovers and are
// ignored (and eventually overwritten) on reopen.
type manifest struct {
	Version  int      `json:"version"`
	NextID   int64    `json:"next_id"`
	Seq      int      `json:"seq"` // next segment file number
	Segments []string `json:"segments"`
	Deleted  []int64  `json:"deleted,omitempty"`
}

const manifestFile = "MANIFEST"

func segName(seq int) string { return fmt.Sprintf("seg-%06d.seg", seq) }

// readManifest loads the manifest, reporting absence as (zero, false, nil).
func readManifest(path string) (manifest, bool, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return manifest{}, false, nil
	}
	if err != nil {
		return manifest{}, false, fmt.Errorf("store: reading manifest: %w", err)
	}
	var m manifest
	// Like the v1 snapshot, the manifest is written atomically: a decode
	// failure is corruption worth surfacing, not a crash artifact.
	if err := json.Unmarshal(data, &m); err != nil {
		return manifest{}, false, fmt.Errorf("store: manifest %s is corrupt: %w", path, err)
	}
	return m, true, nil
}

// installManifest durably installs m as the store's manifest; its rename is
// the commit point of a fold, a bulk append or a compaction.
func (s *FileStore) installManifest(m manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("store: encoding manifest: %w", err)
	}
	if err := installBytes(s.fs, s.path(manifestFile), data); err != nil {
		return fmt.Errorf("store: installing manifest: %w", err)
	}
	return nil
}
