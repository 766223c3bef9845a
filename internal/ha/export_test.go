package ha

// ParseCheckpoint lets the external test package fuzz the checkpoint
// parser without a file per input.
var ParseCheckpoint = parseCheckpoint
