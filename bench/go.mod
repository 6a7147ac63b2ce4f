module divlaws/bench

go 1.22

require divlaws v0.0.0

replace divlaws => ../
