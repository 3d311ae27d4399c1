module txcache/benchmark

go 1.24

require txcache v0.0.0

replace txcache => ../
