module adapcc/bench

go 1.24

require adapcc v0.0.0

replace adapcc => ../
