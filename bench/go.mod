module mpj/bench

go 1.22

require mpj v0.0.0

replace mpj => ../
