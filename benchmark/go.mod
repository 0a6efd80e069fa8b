module mcbound/benchmark

go 1.22

require mcbound v0.0.0

replace mcbound => ../
