(* Workload generators for the report tables and the scaling gate
   (DESIGN.md experiments index). *)

module C = Csrtl_core

(* An N-stage adder chain over two registers: the size-sweep workload
   of experiment C3.  Sequential (handshake-executable) and
   conflict-free by construction. *)
let chain n =
  let b =
    C.Builder.create ~name:(Printf.sprintf "chain%d" n) ~cs_max:((2 * n) + 1)
      ()
  in
  C.Builder.reg b ~init:(C.Word.nat 1) "R0";
  C.Builder.reg b ~init:(C.Word.nat 2) "R1";
  C.Builder.buses b [ "BA"; "BB" ];
  C.Builder.unit_ b ~ops:[ C.Ops.Add ] "ADD";
  for i = 0 to n - 1 do
    let read = (2 * i) + 1 in
    C.Builder.binary b ~fu:"ADD"
      ~a:(C.Transfer.From_reg "R0", "BA")
      ~b:(C.Transfer.From_reg "R1", "BB")
      ~read ~write:(read + 1, "BA")
      ~dst:(C.Transfer.To_reg (if i mod 2 = 0 then "R1" else "R0"))
  done;
  C.Builder.finish b

(* A wide model: [w] independent adder lanes running in parallel over
   [n] steps; stresses per-cycle activity instead of schedule
   length. *)
let parallel_lanes ~lanes ~steps =
  let b =
    C.Builder.create
      ~name:(Printf.sprintf "lanes%dx%d" lanes steps)
      ~cs_max:((2 * steps) + 1)
      ()
  in
  for l = 0 to lanes - 1 do
    C.Builder.reg b ~init:(C.Word.nat (l + 1)) (Printf.sprintf "A%d" l);
    C.Builder.reg b ~init:(C.Word.nat (l + 2)) (Printf.sprintf "B%d" l);
    C.Builder.buses b [ Printf.sprintf "BA%d" l; Printf.sprintf "BB%d" l ];
    C.Builder.unit_ b ~ops:[ C.Ops.Add ] (Printf.sprintf "ADD%d" l)
  done;
  for i = 0 to steps - 1 do
    let read = (2 * i) + 1 in
    for l = 0 to lanes - 1 do
      C.Builder.binary b
        ~fu:(Printf.sprintf "ADD%d" l)
        ~a:(C.Transfer.From_reg (Printf.sprintf "A%d" l), Printf.sprintf "BA%d" l)
        ~b:(C.Transfer.From_reg (Printf.sprintf "B%d" l), Printf.sprintf "BB%d" l)
        ~read
        ~write:(read + 1, Printf.sprintf "BA%d" l)
        ~dst:
          (C.Transfer.To_reg
             (Printf.sprintf (if i mod 2 = 0 then "B%d" else "A%d") l))
    done
  done;
  C.Builder.finish b

(* The controller alone: the pure cost of the six-phase discipline. *)
let controller_only cs_max =
  let b = C.Builder.create ~name:"ctrl" ~cs_max () in
  C.Builder.reg b ~init:(C.Word.nat 0) "R0";
  C.Builder.finish b

(* median-of-3 wall-clock microseconds *)
let wall_us f =
  let once () =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    (Unix.gettimeofday () -. t0) *. 1e6
  in
  let xs = List.init 3 (fun _ -> once ()) in
  match List.sort compare xs with
  | [ _; m; _ ] -> m
  | _ -> assert false
