//go:build race

package cloudapi

// raceDetectorOn reports whether this test binary was built with
// -race. Under the detector sync.Pool drops a share of what is put
// back, so a pooled value is sometimes allocated afresh and the
// allocation pins do not hold.
const raceDetectorOn = true
