// Package atomicfile writes files crash-safely: content goes to a
// temporary sibling (<path>.tmp) and is renamed over the destination
// only after a successful sync. A campaign killed mid-write therefore
// never leaves a truncated report at the destination path — either the
// old content survives intact or the new content is complete. The
// metrics reports, saved stores and the trace journal all write
// through this package.
package atomicfile

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// tmpPath is the deliberately predictable temp sibling: post-mortem
// tooling (and the trace journal reader) can inspect <path>.tmp after
// a crash that preceded the rename.
func tmpPath(path string) string { return path + ".tmp" }

// File is an open temp file that becomes path on Commit. Abort (or a
// Commit failure) removes the temp file; the destination is never
// touched until the rename.
type File struct {
	f    *os.File
	path string
	done bool
}

// Create opens <path>.tmp for writing. The parent directory must
// exist.
func Create(path string) (*File, error) {
	if path == "" {
		return nil, fmt.Errorf("atomicfile: empty path")
	}
	f, err := os.OpenFile(tmpPath(path), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("atomicfile: %w", err)
	}
	return &File{f: f, path: path}, nil
}

// Write appends to the temp file.
func (a *File) Write(p []byte) (int, error) { return a.f.Write(p) }

// Name returns the destination path the file will commit to.
func (a *File) Name() string { return a.path }

// Commit syncs the temp file, renames it over the destination and
// syncs the parent directory, so the rename itself survives a power
// loss. After Commit the File is closed; further writes fail.
func (a *File) Commit() error {
	if a.done {
		return fmt.Errorf("atomicfile: already committed or aborted")
	}
	a.done = true
	if err := a.f.Sync(); err != nil {
		// The sync failure is the error being reported; the close and
		// removal below are best-effort cleanup of a temp file whose
		// content is already known bad.
		_ = a.f.Close()
		_ = os.Remove(tmpPath(a.path))
		return fmt.Errorf("atomicfile: sync: %w", err)
	}
	if err := a.f.Close(); err != nil {
		_ = os.Remove(tmpPath(a.path))
		return fmt.Errorf("atomicfile: close: %w", err)
	}
	if err := os.Rename(tmpPath(a.path), a.path); err != nil {
		_ = os.Remove(tmpPath(a.path))
		return fmt.Errorf("atomicfile: rename: %w", err)
	}
	if err := syncDir(filepath.Dir(a.path)); err != nil {
		return fmt.Errorf("atomicfile: sync directory: %w", err)
	}
	return nil
}

// syncDir flushes a directory's entries to stable storage.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close() // read-only; the sync failure is the error
		return err
	}
	return d.Close()
}

// Abort closes and removes the temp file, leaving the destination
// untouched. Safe to call after Commit (it then does nothing), which
// makes `defer f.Abort()` the standard cleanup.
func (a *File) Abort() {
	if a.done {
		return
	}
	a.done = true
	// Abort is the deliberately errorless cleanup path (callers defer
	// it); the destination was never touched, so nothing here can
	// corrupt it.
	_ = a.f.Close()
	_ = os.Remove(tmpPath(a.path))
}

// WriteWith streams write's output to path via the temp-and-rename
// protocol: the destination changes only if write and the commit both
// succeed.
func WriteWith(path string, write func(io.Writer) error) error {
	f, err := Create(path)
	if err != nil {
		return err
	}
	defer f.Abort()
	if err := write(f); err != nil {
		return err
	}
	return f.Commit()
}

// WriteFile writes data to path via the temp-and-rename protocol — the
// crash-safe os.WriteFile.
func WriteFile(path string, data []byte) error {
	return WriteWith(path, func(w io.Writer) error {
		if _, err := w.Write(data); err != nil {
			return fmt.Errorf("atomicfile: write %s: %w", filepath.Base(path), err)
		}
		return nil
	})
}
