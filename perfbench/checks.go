package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
)

// The checks every operation's outputs must pass. A failed check fails
// the operation: it counts in failed_ratio and makes the run exit nonzero.

// sessionOutcome is what one diagnose-and-fix operation produced.
type sessionOutcome struct {
	origConflict     bool // the profiler's verdict on the original
	analyticConflict bool // the analytic tier's verdict on the pad-0 spec
	fixConflict      bool // the profiler's verdict on the recommended pad
	pad              uint64
	report           [32]byte // sha256 of the original's rendered report
	fixReport        [32]byte // sha256 of the padded kernel's report
}

// checkSession holds one operation to the paper's §6 result: the original
// conflicts, the analytic model agrees, and the recommended pad profiles
// clean. A repeat of the same (case, threads, seed) must reproduce the
// reports byte for byte and the same pad.
func checkSession(o, prev sessionOutcome, repeat bool) error {
	var errs []error
	if !o.origConflict {
		errs = append(errs, errors.New("original not classified as conflicted"))
	}
	if !o.analyticConflict {
		errs = append(errs, errors.New("analytic model does not flag the original layout"))
	}
	if o.fixConflict {
		errs = append(errs, fmt.Errorf("recommended pad %d still profiles as conflicted", o.pad))
	}
	if repeat {
		if o.report != prev.report {
			errs = append(errs, errors.New("original's report differs from an earlier run of the same inputs"))
		}
		if o.fixReport != prev.fixReport {
			errs = append(errs, errors.New("padded kernel's report differs from an earlier run of the same inputs"))
		}
		if o.pad != prev.pad {
			errs = append(errs, fmt.Errorf("recommended pad %d, an earlier run of the same inputs chose %d", o.pad, prev.pad))
		}
	}
	return errors.Join(errs...)
}

// checkSameBytes requires two encodings of one stream, or two reports of
// it, to be identical.
func checkSameBytes(what string, got, want [32]byte) error {
	if got != want {
		return fmt.Errorf("%s differs: sha256 %x, want %x", what, got[:6], want[:6])
	}
	return nil
}

// checkArtifact requires a fetched ccprofd artifact to hash to the sha256
// the daemon recorded for the job (and sent in X-Artifact-Sha256).
func checkArtifact(data []byte, jobHash, header string) error {
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	if got != jobHash {
		return fmt.Errorf("artifact sha256 %.12s, job records %.12s", got, jobHash)
	}
	if header != jobHash {
		return fmt.Errorf("X-Artifact-Sha256 %.12s, job records %.12s", header, jobHash)
	}
	return nil
}

// checkRepeatHash requires a job with pinned inputs to produce the same
// artifact as every earlier job with the same inputs.
func checkRepeatHash(seen map[string]string, key, hash string) error {
	if prev, ok := seen[key]; ok && prev != hash {
		return fmt.Errorf("%s: artifact %.12s, an earlier identical job produced %.12s", key, hash, prev)
	}
	seen[key] = hash
	return nil
}
