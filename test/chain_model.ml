(* An adder chain shaped like the benchmark's: two registers swapping
   sums through one unit, read at 2i+1 and written at 2i+2.  [init]
   gives the registers' initial values. *)
let chain ?(init = (5, 9)) steps =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "model chain%d\ncsmax %d\nreg A init %d\nreg B init %d\nbus BA BB\n\
        unit U ops add latency 1\n"
       steps ((2 * steps) + 1) (fst init) (snd init));
  for i = 0 to steps - 1 do
    let read = (2 * i) + 1 in
    Buffer.add_string b
      (Printf.sprintf "transfer A BA B BB %d U %d BA %s\n" read (read + 1)
         (if i mod 2 = 0 then "B" else "A"))
  done;
  Csrtl_core.Rtm.of_string (Buffer.contents b)
