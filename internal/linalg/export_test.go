package linalg

// ExpmIntoThreePass exports the pre-fusion Taylor loop (oracle_test.go) to
// the external test package, whose propagator oracle needs it.
var ExpmIntoThreePass = expmIntoThreePass
