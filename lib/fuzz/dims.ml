let all : (module Campaign.S) list =
  [ (module Fuzzer); (module Pgfuzz); (module Blockfuzz); (module Acefuzz) ]
