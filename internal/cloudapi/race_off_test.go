//go:build !race

package cloudapi

// raceDetectorOn is false without -race; see race_on_test.go.
const raceDetectorOn = false
