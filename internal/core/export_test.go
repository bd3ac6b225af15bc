package core

// ColumnLoops exposes columnLoops to the package's external tests.
var ColumnLoops = columnLoops
