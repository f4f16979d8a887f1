module impeller/benchmark

go 1.22

require impeller v0.0.0

replace impeller => ../
