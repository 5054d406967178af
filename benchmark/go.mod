module csce/benchmark

go 1.22

require csce v0.0.0

replace csce => ../
