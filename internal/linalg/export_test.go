package linalg

// The three-pass Taylor oracle and its tolerance (oracle_test.go), for
// the external test package's propagator oracle.
var (
	ExpmIntoThreePass = expmIntoThreePass
	ExpmTolerance     = expmTolerance
)
