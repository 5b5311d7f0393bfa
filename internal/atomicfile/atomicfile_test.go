package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")

	if err := WriteFile(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "v1" {
		t.Fatalf("read back %q, %v", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind: %v", err)
	}

	// Overwrite is atomic too.
	if err := WriteFile(path, []byte("v2 longer content")); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "v2 longer content" {
		t.Fatalf("overwrite read back %q", got)
	}
}

func TestAbortLeavesDestinationIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out")
	if err := WriteFile(path, []byte("original")); err != nil {
		t.Fatal(err)
	}

	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("partial")); err != nil {
		t.Fatal(err)
	}
	f.Abort()

	got, err := os.ReadFile(path)
	if err != nil || string(got) != "original" {
		t.Fatalf("destination changed by abort: %q, %v", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("abort left temp file: %v", err)
	}

	// WriteWith aborts the same way when its writer fails part-way.
	failed := errors.New("encoder failed")
	err = WriteWith(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial")); err != nil {
			return err
		}
		return failed
	})
	if !errors.Is(err, failed) {
		t.Errorf("WriteWith = %v, want the writer's error", err)
	}
	got, err = os.ReadFile(path)
	if err != nil || string(got) != "original" {
		t.Errorf("destination changed by a failed WriteWith: %q, %v", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("failed WriteWith left temp file: %v", err)
	}
}

func TestCrashLeavesTempNotDestination(t *testing.T) {
	// A "crash" is a File that is never committed or aborted: the temp
	// sibling holds the partial bytes, the destination does not exist.
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("{\"id\":1}\n")); err != nil {
		t.Fatal(err)
	}
	// No Commit, no Abort — process dies here.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("destination exists before commit: %v", err)
	}
	tmp, err := os.ReadFile(path + ".tmp")
	if err != nil {
		t.Fatalf("temp file missing after crash: %v", err)
	}
	if string(tmp) != "{\"id\":1}\n" {
		t.Errorf("temp content = %q", tmp)
	}
	f.Abort() // cleanup for the test process
}

func TestCommitTwiceFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x")
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(); err == nil {
		t.Error("second Commit succeeded")
	}
	f.Abort() // no-op after commit
	if _, err := os.Stat(path); err != nil {
		t.Errorf("destination missing after abort-after-commit: %v", err)
	}
}
