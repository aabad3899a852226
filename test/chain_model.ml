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

(* The benchmark's lane model: [lanes] independent register pairs, each
   stepping its own unit through [steps] transfers read at 2i+1 and
   written at 2i+2.  Lane [l]'s unit runs [List.nth ops (l mod n)], and
   the registers' initial values are drawn from [1, 2^20] by [seed]. *)
let lanes ~seed ~lanes ~steps ~ops =
  let st = Random.State.make [| seed |] in
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "model lanes%dx%ds%d\ncsmax %d\n" lanes steps seed
       ((2 * steps) + 1));
  for l = 0 to lanes - 1 do
    let a = 1 + Random.State.int st (1 lsl 20) in
    let bv = 1 + Random.State.int st (1 lsl 20) in
    Buffer.add_string b
      (Printf.sprintf
         "reg A%d init %d\nreg B%d init %d\nbus BA%d BB%d\nunit U%d ops %s \
          latency 1\n"
         l a l bv l l l
         (List.nth ops (l mod List.length ops)))
  done;
  for i = 0 to steps - 1 do
    let read = (2 * i) + 1 in
    for l = 0 to lanes - 1 do
      Buffer.add_string b
        (Printf.sprintf "transfer A%d BA%d B%d BB%d %d U%d %d BA%d %s%d\n" l l
           l l read l (read + 1) l
           (if i mod 2 = 0 then "B" else "A")
           l)
    done
  done;
  Csrtl_core.Rtm.of_string (Buffer.contents b)
