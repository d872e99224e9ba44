package engine

// CheckDerived exposes the derived-state coherence oracle (checkDerived)
// to the external engine_test package, whose tests drive engines through
// internal/fuzzdiff.
var CheckDerived = checkDerived
