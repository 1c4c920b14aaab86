package zukowski

// RunCap is the byte budget of one run of adjacent frames, for tests that
// bound how many reads a sequential scan issues.
const RunCap = runCap
