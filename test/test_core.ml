(* Tests of the clock-free RT model library: words, phases, the
   resolution function, tuples and legs, Fig. 1 end-to-end on both
   execution paths, conflict detection, the delta-cycle law. *)

open Csrtl_core

let word = Alcotest.testable (Fmt.of_to_string Word.to_string) Word.equal
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -- Word --------------------------------------------------------------- *)

let test_word_sentinels () =
  check_bool "disc" true (Word.is_disc Word.disc);
  check_bool "illegal" true (Word.is_illegal Word.illegal);
  check_bool "nat not disc" false (Word.is_disc (Word.nat 0));
  Alcotest.check_raises "negative nat" (Invalid_argument "Word.nat: negative")
    (fun () -> ignore (Word.nat (-3)));
  Alcotest.(check string) "print disc" "DISC" (Word.to_string Word.disc);
  Alcotest.(check string) "print illegal" "ILLEGAL"
    (Word.to_string Word.illegal);
  Alcotest.(check (option int)) "of_string" (Some 12) (Word.of_string "12");
  Alcotest.(check (option int)) "of_string disc" (Some Word.disc)
    (Word.of_string "DISC");
  Alcotest.(check (option int)) "of_string junk" None (Word.of_string "-7")

let test_word_signed () =
  let minus_one = Word.of_signed (-1) in
  check_bool "still a natural" true (Word.is_nat minus_one);
  check_int "roundtrip" (-1) (Word.to_signed minus_one);
  check_int "positive unchanged" 1234 (Word.to_signed (Word.nat 1234));
  check_int "mask wraps" 0 (Word.mask (1 lsl Word.width))

(* -- Phase -------------------------------------------------------------- *)

let test_phase_order () =
  check_int "six phases" 6 (List.length Phase.all);
  Alcotest.(check (list string)) "order"
    [ "ra"; "rb"; "cm"; "wa"; "wb"; "cr" ]
    (List.map Phase.to_string Phase.all);
  check_bool "cyclic" true (Phase.succ Phase.Cr = Phase.Ra);
  List.iter
    (fun p -> check_bool "succ/pred inverse" true (Phase.pred (Phase.succ p) = p))
    Phase.all;
  List.iter
    (fun p ->
      Alcotest.(check (option string)) "int roundtrip"
        (Some (Phase.to_string p))
        (Option.map Phase.to_string (Phase.of_int (Phase.to_int p))))
    Phase.all

(* -- Resolution (paper definition + algebraic properties) --------------- *)

let test_resolution_paper_cases () =
  let r = Resolve.resolve_list in
  Alcotest.check word "all DISC" Word.disc
    (r [ Word.disc; Word.disc; Word.disc ]);
  Alcotest.check word "single natural" (Word.nat 5)
    (r [ Word.disc; Word.nat 5; Word.disc ]);
  Alcotest.check word "two naturals" Word.illegal
    (r [ Word.nat 5; Word.disc; Word.nat 5 ]);
  Alcotest.check word "one illegal poisons" Word.illegal
    (r [ Word.disc; Word.illegal ]);
  Alcotest.check word "empty" Word.disc (r []);
  Alcotest.check word "nat + illegal" Word.illegal
    (r [ Word.nat 1; Word.illegal ])

let arbitrary_word =
  QCheck.map
    (fun i -> if i = -1 then Word.disc else if i = -2 then Word.illegal else i)
    QCheck.(int_range (-2) 20)

let prop_resolution_commutative =
  QCheck.Test.make ~name:"resolution is commutative" ~count:500
    (QCheck.pair arbitrary_word arbitrary_word)
    (fun (a, b) -> Resolve.combine a b = Resolve.combine b a)

let prop_resolution_associative =
  QCheck.Test.make ~name:"resolution is associative" ~count:500
    (QCheck.triple arbitrary_word arbitrary_word arbitrary_word)
    (fun (a, b, c) ->
      Resolve.combine a (Resolve.combine b c)
      = Resolve.combine (Resolve.combine a b) c)

let prop_resolution_unit =
  QCheck.Test.make ~name:"DISC is the unit" ~count:100 arbitrary_word
    (fun a -> Resolve.combine Word.disc a = a && Resolve.combine a Word.disc = a)

let prop_resolution_nat_only_when_unique =
  QCheck.Test.make ~name:"natural result iff exactly one natural, no illegal"
    ~count:500
    (QCheck.list_of_size (QCheck.Gen.int_range 0 6) arbitrary_word)
    (fun vs ->
      let r = Resolve.resolve_list vs in
      let nats = List.length (List.filter Word.is_nat vs) in
      let ills = List.length (List.filter Word.is_illegal vs) in
      if Word.is_nat r then nats = 1 && ills = 0
      else if Word.is_disc r then nats = 0 && ills = 0
      else nats >= 2 || ills >= 1)

(* -- Ops ----------------------------------------------------------------- *)

let test_ops_eval () =
  check_int "add" 7 (Ops.eval Ops.Add [| 3; 4 |]);
  check_int "sub wraps" (Word.mask (-1)) (Ops.eval Ops.Sub [| 3; 4 |]);
  check_int "mul" 12 (Ops.eval Ops.Mul [| 3; 4 |]);
  check_int "shri" 2 (Ops.eval (Ops.Shri 2) [| 8 |]);
  check_int "asr keeps sign" (Word.of_signed (-2))
    (Ops.eval (Ops.Asri 1) [| Word.of_signed (-4) |]);
  check_int "const" 1 (Ops.eval (Ops.Const 1) [||]);
  check_int "mac" 14 (Ops.eval Ops.Mac [| 3; 4; 2 |]);
  check_int "lts signed" 1
    (Ops.eval Ops.Lts [| Word.of_signed (-1); Word.nat 0 |]);
  check_int "lt unsigned" 0
    (Ops.eval Ops.Lt [| Word.of_signed (-1); Word.nat 0 |])

let test_ops_apply_lifting () =
  let w = Alcotest.check word in
  w "both disc" Word.disc (Ops.apply Ops.Add ~prev:Word.disc Word.disc Word.disc);
  w "partial" Word.illegal (Ops.apply Ops.Add ~prev:Word.disc (Word.nat 1) Word.disc);
  w "illegal poisons" Word.illegal
    (Ops.apply Ops.Add ~prev:Word.disc Word.illegal (Word.nat 1));
  w "normal" (Word.nat 3) (Ops.apply Ops.Add ~prev:Word.disc (Word.nat 1) (Word.nat 2));
  w "unary ignores b" (Word.nat 5)
    (Ops.apply Ops.Pass ~prev:Word.disc (Word.nat 5) Word.disc);
  w "mac accumulates" (Word.nat 11)
    (Ops.apply Ops.Mac ~prev:(Word.nat 5) (Word.nat 2) (Word.nat 3));
  w "mac holds on disc" (Word.nat 5)
    (Ops.apply Ops.Mac ~prev:(Word.nat 5) Word.disc Word.disc)

let test_ops_string_roundtrip () =
  let ops =
    [ Ops.Add; Ops.Sub; Ops.Mul; Ops.Shri 3; Ops.Asri 1; Ops.Const 42;
      Ops.Pass; Ops.Mac; Ops.Lts; Ops.Addi 7 ]
  in
  List.iter
    (fun op ->
      Alcotest.(check bool)
        (Ops.to_string op) true
        (match Ops.of_string (Ops.to_string op) with
         | Some op' -> Ops.equal op op'
         | None -> false))
    ops;
  Alcotest.(check bool) "junk" true (Ops.of_string "frob" = None)

(* -- Tuples and legs ------------------------------------------------------ *)

let fig1_tuple =
  Transfer.full
    ~src_a:(Transfer.From_reg "R1") ~bus_a:"B1"
    ~src_b:(Transfer.From_reg "R2") ~bus_b:"B2"
    ~read_step:5 ~fu:"ADD" ~op:Ops.Add ~write_step:6 ~write_bus:"B1"
    ~dst:(Transfer.To_reg "R1") ()

let test_decompose_fig1 () =
  let legs, selects = Transfer.decompose fig1_tuple in
  check_int "six legs" 6 (List.length legs);
  check_int "one selection" 1 (List.length selects);
  let show (l : Transfer.leg) = Format.asprintf "%a" Transfer.pp_leg l in
  Alcotest.(check (list string)) "paper's six TRANS instances"
    [ "R1.out -> B1 @5/ra"; "R2.out -> B2 @5/ra"; "B1 -> ADD.in1 @5/rb";
      "B2 -> ADD.in2 @5/rb"; "ADD.out -> B1 @6/wa"; "B1 -> R1.in @6/wb" ]
    (List.map show legs)

let test_compose_recovers_partial_tuples () =
  (* Paper §2.7: legs recompose into a read tuple and a write tuple. *)
  let legs, selects = Transfer.decompose fig1_tuple in
  let tuples = Transfer.compose legs selects in
  check_int "read + write parts" 2 (List.length tuples);
  let strs = List.map Transfer.to_string tuples in
  Alcotest.(check (list string)) "partial tuples"
    [ "(R1,B1,R2,B2,5,ADD:add,-,-,-)"; "(-,-,-,-,-,ADD,6,B1,R1)" ]
    strs

let test_merge_restores_full_tuple () =
  let legs, selects = Transfer.decompose fig1_tuple in
  let tuples = Transfer.compose legs selects in
  let merged = Transfer.merge ~latency_of:(fun _ -> 1) tuples in
  check_int "one full tuple" 1 (List.length merged);
  Alcotest.(check string) "paper notation"
    "(R1,B1,R2,B2,5,ADD:add,6,B1,R1)"
    (Transfer.to_string (List.hd merged))

let test_partial_tuples_via_builder () =
  (* read-only and write-only tuples are legal models: the read part
     feeds the unit (result discarded), the write part forwards
     whatever the idle unit emits (DISC -> no latch) *)
  let b = Builder.create ~name:"partial" ~cs_max:6 () in
  Builder.reg b ~init:(Word.nat 5) "A";
  Builder.reg b ~init:(Word.nat 9) "KEEP";
  Builder.buses b [ "BA"; "BB" ];
  Builder.unit_ b ~ops:[ Ops.Add ] "ADD";
  Builder.read_only b ~fu:"ADD"
    ~a:(Transfer.From_reg "A", "BA")
    ~b:(Transfer.From_reg "A", "BB")
    ~read:1 ();
  Builder.write_only b ~fu:"ADD" ~write:(4, "BA")
    ~dst:(Transfer.To_reg "KEEP");
  let m = Builder.finish b in
  let obs = Interp.run m in
  (* at step 4 the unit has long flushed (computed at step 1, output
     at step 2): the write-only tuple forwards DISC, KEEP holds *)
  Alcotest.(check (option word)) "KEEP unchanged" (Some (Word.nat 9))
    (Observation.final_reg obs "KEEP");
  check_bool "no conflicts" false (Observation.has_conflict obs);
  (* and kernel agrees *)
  Alcotest.(check (list string)) "kernel parity" []
    (Observation.diff (Simulate.run m).Simulate.obs obs)

let test_tuple_printing () =
  Alcotest.(check string) "full" "(R1,B1,R2,B2,5,ADD:add,6,B1,R1)"
    (Transfer.to_string fig1_tuple);
  let partial = Transfer.make ~fu:"ADD" () in
  Alcotest.(check string) "empty" "(-,-,-,-,-,ADD,-,-,-)"
    (Transfer.to_string partial)

let prop_decompose_compose_roundtrip =
  (* Random full tuples decompose and recompose into the same tuple. *)
  let gen =
    QCheck.Gen.(
      let name prefix = map (fun i -> Printf.sprintf "%s%d" prefix i) (int_range 1 4) in
      let* ra = name "R" in
      let* rb = name "Q" in
      let* ba = name "A" in
      let* bb = name "B" in
      let* wb = name "W" in
      let* rd = name "D" in
      let* f = name "F" in
      let* step = int_range 1 20 in
      let* lat = int_range 1 3 in
      return
        (Transfer.full ~src_a:(Transfer.From_reg ra) ~bus_a:ba
           ~src_b:(Transfer.From_reg rb) ~bus_b:bb ~read_step:step ~fu:f
           ~op:Ops.Add ~write_step:(step + lat) ~write_bus:wb
           ~dst:(Transfer.To_reg rd) (), lat))
  in
  QCheck.Test.make ~name:"decompose . compose . merge = id (full tuples)"
    ~count:300
    (QCheck.make gen)
    (fun (t, lat) ->
      let legs, selects = Transfer.decompose t in
      let back =
        Transfer.merge ~latency_of:(fun _ -> lat)
          (Transfer.compose legs selects)
      in
      back = [ t ])

(* -- Fig. 1 end-to-end ----------------------------------------------------- *)

let test_fig1_kernel () =
  let m = Builder.fig1 () in
  let r = Simulate.run m in
  Alcotest.(check (option word)) "R1 = 3 + 4 after step 6" (Some (Word.nat 7))
    (Observation.final_reg r.obs "R1");
  Alcotest.(check (option word)) "R2 unchanged" (Some (Word.nat 4))
    (Observation.final_reg r.obs "R2");
  check_bool "no conflicts" false (Observation.has_conflict r.obs)

let test_fig1_delta_law () =
  (* Paper §2.2: the complete simulation takes CS_MAX * 6 delta cycles
     (plus the trailing register-update cycle when the final step
     latches; fig1 writes back at step 6 < cs_max = 7). *)
  let m = Builder.fig1 () in
  let r = Simulate.run m in
  check_int "expected_cycles" (Simulate.expected_cycles m) r.cycles;
  check_int "6 * cs_max" (6 * m.cs_max) r.cycles

let test_fig1_interp_matches_kernel () =
  let m = Builder.fig1 ~x:10 ~y:32 () in
  let k = (Simulate.run m).obs in
  let i = Interp.run m in
  Alcotest.(check (list string)) "consistent" [] (Observation.diff k i)

let test_fig1_register_timeline () =
  let m = Builder.fig1 () in
  let i = Interp.run m in
  match Observation.reg_trace i "R1" with
  | None -> Alcotest.fail "missing R1"
  | Some arr ->
    (* R1 holds 3 through step 5 and 7 from step 6 on. *)
    Alcotest.check word "step 5" (Word.nat 3) arr.(4);
    Alcotest.check word "step 6" (Word.nat 7) arr.(5);
    Alcotest.check word "step 7" (Word.nat 7) arr.(6)

(* -- inputs, outputs, multi-step pipelines ------------------------------- *)

let chain_model () =
  (* X -> ADD1(+R0) -> R1 ; R1 -> ADD1(+R1) -> R2 using schedules *)
  let b = Builder.create ~name:"io" ~cs_max:8 () in
  Builder.input b ~value:(Word.nat 5) "X";
  Builder.reg b ~init:(Word.nat 2) "R1";
  Builder.reg b "R2";
  Builder.output b "Y";
  Builder.buses b [ "BA"; "BB" ];
  Builder.unit_ b ~ops:[ Ops.Add ] "ADD";
  (* step 1: R2 := X + R1 = 7 *)
  Builder.binary b ~fu:"ADD"
    ~a:(Transfer.From_input "X", "BA")
    ~b:(Transfer.From_reg "R1", "BB")
    ~read:1 ~write:(2, "BA") ~dst:(Transfer.To_reg "R2");
  (* step 3: Y := R2 + R2 — illegal? no: use two buses *)
  Builder.binary b ~fu:"ADD"
    ~a:(Transfer.From_reg "R2", "BA")
    ~b:(Transfer.From_reg "R1", "BB")
    ~read:3 ~write:(4, "BB") ~dst:(Transfer.To_output "Y");
  Builder.finish b

let test_inputs_outputs () =
  let m = chain_model () in
  let r = Simulate.run m in
  Alcotest.(check (option word)) "R2" (Some (Word.nat 7))
    (Observation.final_reg r.obs "R2");
  Alcotest.(check (list (pair int word))) "Y written once at step 4"
    [ (4, Word.nat 9) ]
    (Observation.output_writes r.obs "Y");
  let i = Interp.run m in
  Alcotest.(check (list string)) "interp agrees" [] (Observation.diff r.obs i)

let test_pipelined_two_stage () =
  (* A latency-2 pipelined unit accepts operands in consecutive steps. *)
  let b = Builder.create ~name:"pipe" ~cs_max:8 () in
  Builder.reg b ~init:(Word.nat 3) "A";
  Builder.reg b ~init:(Word.nat 4) "B";
  Builder.reg b "P1";
  Builder.reg b "P2";
  Builder.buses b [ "BA"; "BB" ];
  Builder.unit_ b ~latency:2 ~ops:[ Ops.Mul ] "MULT";
  Builder.binary b ~fu:"MULT"
    ~a:(Transfer.From_reg "A", "BA") ~b:(Transfer.From_reg "B", "BB")
    ~read:1 ~write:(3, "BA") ~dst:(Transfer.To_reg "P1");
  Builder.binary b ~fu:"MULT"
    ~a:(Transfer.From_reg "A", "BA") ~b:(Transfer.From_reg "A", "BB")
    ~read:2 ~write:(4, "BB") ~dst:(Transfer.To_reg "P2");
  let m = Builder.finish b in
  let r = Simulate.run m in
  Alcotest.(check (option word)) "P1 = 12" (Some (Word.nat 12))
    (Observation.final_reg r.obs "P1");
  Alcotest.(check (option word)) "P2 = 9" (Some (Word.nat 9))
    (Observation.final_reg r.obs "P2");
  check_bool "no conflict" false (Observation.has_conflict r.obs);
  let i = Interp.run m in
  Alcotest.(check (list string)) "interp agrees" [] (Observation.diff r.obs i)

let test_nonpipelined_overlap_illegal () =
  let b = Builder.create ~name:"busy" ~cs_max:8 () in
  Builder.reg b ~init:(Word.nat 3) "A";
  Builder.reg b "P1";
  Builder.reg b "P2";
  Builder.buses b [ "BA"; "BB" ];
  Builder.unit_ b ~latency:2 ~pipelined:false ~ops:[ Ops.Mul ] "MULT";
  Builder.binary b ~fu:"MULT"
    ~a:(Transfer.From_reg "A", "BA") ~b:(Transfer.From_reg "A", "BB")
    ~read:1 ~write:(3, "BA") ~dst:(Transfer.To_reg "P1");
  Builder.binary b ~fu:"MULT"
    ~a:(Transfer.From_reg "A", "BA") ~b:(Transfer.From_reg "A", "BB")
    ~read:2 ~write:(4, "BB") ~dst:(Transfer.To_reg "P2");
  let m = Builder.finish b in
  let conflicts = Conflict.check m in
  check_bool "static busy-unit conflict" true
    (List.exists
       (function Conflict.Busy_unit _ -> true | _ -> false)
       conflicts);
  let r = Simulate.run m in
  Alcotest.(check (option word)) "P2 poisoned" (Some Word.illegal)
    (Observation.final_reg r.obs "P2");
  let i = Interp.run m in
  Alcotest.(check (list string)) "interp agrees" [] (Observation.diff r.obs i)

(* -- conflicts ------------------------------------------------------------ *)

let conflicting_model () =
  let b = Builder.create ~name:"clash" ~cs_max:6 () in
  Builder.reg b ~init:(Word.nat 1) "R1";
  Builder.reg b ~init:(Word.nat 2) "R2";
  Builder.reg b "R3";
  Builder.buses b [ "B1"; "B2" ];
  Builder.unit_ b ~ops:[ Ops.Add ] "ADD";
  (* Both sources drive B1 at step 2 phase ra: resource conflict. *)
  Builder.binary b ~fu:"ADD"
    ~a:(Transfer.From_reg "R1", "B1")
    ~b:(Transfer.From_reg "R2", "B2")
    ~read:2 ~write:(3, "B1") ~dst:(Transfer.To_reg "R3");
  Builder.binary b ~fu:"ADD"
    ~a:(Transfer.From_reg "R2", "B1")
    ~b:(Transfer.From_reg "R1", "B2")
    ~read:2 ~write:(3, "B2") ~dst:(Transfer.To_reg "R3");
  Builder.finish_unchecked b

let test_conflict_static_detection () =
  let m = conflicting_model () in
  let cs = Conflict.check m in
  check_bool "found" true (cs <> []);
  check_bool "double drive of B1 at step 2 ra" true
    (List.exists
       (function
         | Conflict.Double_drive { step = 2; phase = Phase.Ra; sink = "B1"; _ } ->
           true
         | _ -> false)
       cs)

let test_conflict_dynamic_localization () =
  (* Paper: a conflict results in ILLEGAL "in specific simulation
     cycles associated with a specific phase of a specific control
     step". *)
  let m = conflicting_model () in
  let r = Simulate.run m in
  check_bool "conflicts observed" true (Observation.has_conflict r.obs);
  check_bool "B1 ILLEGAL visible at step 2 phase rb" true
    (List.mem (2, Phase.Rb, "B1") r.obs.Observation.conflicts);
  let i = Interp.run m in
  Alcotest.(check (list string)) "interp agrees" [] (Observation.diff r.obs i)

let test_validation_errors () =
  let b = Builder.create ~name:"bad" ~cs_max:4 () in
  Builder.reg b "R1";
  Builder.buses b [ "B1" ];
  Builder.unit_ b ~ops:[ Ops.Add ] "ADD";
  Builder.binary b ~fu:"ADD"
    ~a:(Transfer.From_reg "NOPE", "B1")
    ~b:(Transfer.From_reg "R1", "B9")
    ~read:9 ~write:(10, "B1") ~dst:(Transfer.To_reg "R1");
  let m = Builder.finish_unchecked b in
  let errs = Model.validate m in
  check_bool "unknown register" true
    (List.exists (fun (e : Model.error) -> e.message = "unknown register NOPE") errs);
  check_bool "unknown bus" true
    (List.exists (fun (e : Model.error) -> e.message = "unknown bus B9") errs);
  check_bool "step range" true
    (List.exists
       (fun (e : Model.error) ->
         e.message = "read step 9 outside [1, 4]")
       errs)

let test_latency_contract_validated () =
  let b = Builder.create ~name:"lat" ~cs_max:6 () in
  Builder.reg b ~init:(Word.nat 1) "R1";
  Builder.buses b [ "B1"; "B2" ];
  Builder.unit_ b ~latency:2 ~ops:[ Ops.Add ] "ADD2";
  Builder.binary b ~fu:"ADD2"
    ~a:(Transfer.From_reg "R1", "B1")
    ~b:(Transfer.From_reg "R1", "B2")
    ~read:1 ~write:(2, "B1") ~dst:(Transfer.To_reg "R1");
  let m = Builder.finish_unchecked b in
  check_bool "latency mismatch reported" true
    (List.exists
       (fun (e : Model.error) ->
         e.message
         = "unit ADD2 has latency 2 but write step is 2 after read step 1")
       (Model.validate m))

(* -- op selection ---------------------------------------------------------- *)

let test_multi_op_unit () =
  let b = Builder.create ~name:"alu" ~cs_max:8 () in
  Builder.reg b ~init:(Word.nat 10) "A";
  Builder.reg b ~init:(Word.nat 3) "B";
  Builder.reg b "S";
  Builder.reg b "D";
  Builder.buses b [ "BA"; "BB" ];
  Builder.unit_ b ~ops:[ Ops.Add; Ops.Sub ] "ALU";
  Builder.binary b ~op:Ops.Add ~fu:"ALU"
    ~a:(Transfer.From_reg "A", "BA") ~b:(Transfer.From_reg "B", "BB")
    ~read:1 ~write:(2, "BA") ~dst:(Transfer.To_reg "S");
  Builder.binary b ~op:Ops.Sub ~fu:"ALU"
    ~a:(Transfer.From_reg "A", "BA") ~b:(Transfer.From_reg "B", "BB")
    ~read:3 ~write:(4, "BA") ~dst:(Transfer.To_reg "D");
  let m = Builder.finish b in
  let r = Simulate.run m in
  Alcotest.(check (option word)) "sum" (Some (Word.nat 13))
    (Observation.final_reg r.obs "S");
  Alcotest.(check (option word)) "difference" (Some (Word.nat 7))
    (Observation.final_reg r.obs "D");
  let i = Interp.run m in
  Alcotest.(check (list string)) "interp agrees" [] (Observation.diff r.obs i)

let test_op_clash_detected () =
  let b = Builder.create ~name:"opclash" ~cs_max:6 () in
  Builder.reg b ~init:(Word.nat 10) "A";
  Builder.reg b ~init:(Word.nat 3) "B";
  Builder.reg b "S";
  Builder.buses b [ "BA"; "BB"; "BC"; "BD" ];
  Builder.unit_ b ~ops:[ Ops.Add; Ops.Sub ] "ALU";
  Builder.binary b ~op:Ops.Add ~fu:"ALU"
    ~a:(Transfer.From_reg "A", "BA") ~b:(Transfer.From_reg "B", "BB")
    ~read:1 ~write:(2, "BA") ~dst:(Transfer.To_reg "S");
  Builder.read_only b ~op:Ops.Sub ~fu:"ALU"
    ~a:(Transfer.From_reg "A", "BC") ~b:(Transfer.From_reg "B", "BD")
    ~read:1 ();
  let m = Builder.finish_unchecked b in
  check_bool "static op clash" true
    (List.exists
       (function Conflict.Op_clash { fu = "ALU"; step = 1; _ } -> true | _ -> false)
       (Conflict.check m));
  let r = Simulate.run m in
  (* the unit inputs get double-driven too; the op port conflicts *)
  check_bool "dynamic illegal somewhere" true
    (Observation.has_conflict r.obs);
  let i = Interp.run m in
  Alcotest.(check (list string)) "interp agrees" [] (Observation.diff r.obs i)

(* -- random model consistency (C6 seed; full version in verify tests) ----- *)

let random_linear_model seed =
  (* A deterministic pseudo-random chain of adds/subs through two
     buses; always conflict-free by construction. *)
  let rnd = Random.State.make [| seed |] in
  let steps = 2 + Random.State.int rnd 6 in
  let cs_max = (steps * 2) + 2 in
  let b = Builder.create ~name:(Printf.sprintf "rand%d" seed) ~cs_max () in
  Builder.reg b ~init:(Word.nat (Random.State.int rnd 50)) "R0";
  Builder.reg b ~init:(Word.nat (Random.State.int rnd 50)) "R1";
  Builder.buses b [ "BA"; "BB" ];
  Builder.unit_ b ~ops:[ Ops.Add; Ops.Sub; Ops.Max ] "ALU";
  for i = 0 to steps - 1 do
    let op =
      match Random.State.int rnd 3 with
      | 0 -> Ops.Add
      | 1 -> Ops.Sub
      | _ -> Ops.Max
    in
    let read = (i * 2) + 1 in
    let dst = if i mod 2 = 0 then "R1" else "R0" in
    Builder.binary b ~op ~fu:"ALU"
      ~a:(Transfer.From_reg "R0", "BA")
      ~b:(Transfer.From_reg "R1", "BB")
      ~read ~write:(read + 1, "BA")
      ~dst:(Transfer.To_reg dst)
  done;
  Builder.finish b

let prop_kernel_interp_consistent =
  QCheck.Test.make ~name:"kernel and interpreter agree on random chains"
    ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let m = random_linear_model seed in
      let k = (Simulate.run m).obs in
      let i = Interp.run m in
      Observation.equal k i)

let prop_delta_law =
  QCheck.Test.make ~name:"cycles = 6*cs_max (+1 on final write-back)"
    ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let m = random_linear_model seed in
      (Simulate.run m).cycles = Simulate.expected_cycles m)

(* -- rtm format ------------------------------------------------------------ *)

let test_rtm_roundtrip () =
  let m = Builder.fig1 () in
  let text = Rtm.to_string m in
  let m' = Rtm.of_string text in
  check_bool "model equal" true (m = m');
  let r = Simulate.run m' in
  Alcotest.(check (option word)) "still computes" (Some (Word.nat 7))
    (Observation.final_reg r.obs "R1")

(* [Rtm.to_string] as it was written with [Format]: one
   [Format.kasprintf] per line.  The buffer-built renderer must give
   exactly these bytes, since every model digest hashes them. *)
let format_to_string (m : Model.t) =
  let buf = Buffer.create 1024 in
  let line fmt =
    Format.kasprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  let source = function
    | None -> "-"
    | Some (Transfer.From_reg r) -> r
    | Some (Transfer.From_input i) -> i ^ "!"
  in
  let dest = function
    | None -> "-"
    | Some (Transfer.To_reg r) -> r
    | Some (Transfer.To_output o) -> o ^ "!"
  in
  let opt = function None -> "-" | Some s -> s in
  let opt_int = function None -> "-" | Some n -> string_of_int n in
  line "model %s" m.name;
  line "csmax %d" m.cs_max;
  List.iter
    (fun (r : Model.register) ->
      if Word.is_disc r.init then line "reg %s" r.reg_name
      else line "reg %s init %s" r.reg_name (Word.to_string r.init))
    m.registers;
  List.iter
    (fun (f : Model.fu) ->
      line "unit %s ops %s latency %d%s%s" f.fu_name
        (String.concat "," (List.map Ops.to_string f.ops))
        f.latency
        (if f.pipelined then "" else " nonpipelined")
        (if f.sticky_illegal then "" else " transparent-illegal"))
    m.fus;
  List.iter (fun b -> line "bus %s" b) m.buses;
  List.iter
    (fun (i : Model.input) ->
      match i.drive with
      | Model.Const v -> line "input %s const %s" i.in_name (Word.to_string v)
      | Model.Schedule entries ->
        line "input %s schedule %s" i.in_name
          (String.concat " "
             (List.map
                (fun (s, v) -> Printf.sprintf "%d:%s" s (Word.to_string v))
                entries)))
    m.inputs;
  List.iter (fun o -> line "output %s" o) m.outputs;
  List.iter
    (fun (t : Transfer.t) ->
      let fu_field =
        match t.op with
        | None -> t.fu
        | Some op -> t.fu ^ ":" ^ Ops.to_string op
      in
      line "transfer %s %s %s %s %s %s %s %s %s" (source t.src_a)
        (opt t.bus_a) (source t.src_b) (opt t.bus_b) (opt_int t.read_step)
        fu_field (opt_int t.write_step) (opt t.write_bus) (dest t.dst))
    m.transfers;
  Buffer.contents buf

(* every construct the text format has, including the corners a
   parsed model cannot reach: an empty schedule, no ops, and a unit
   that is neither pipelined nor sticky *)
let every_construct_model () =
  let t ?src_a ?src_b ?read_step ?op ?write_step ?dst fu =
    { Transfer.src_a; bus_a = Some "B1"; src_b; bus_b = None; read_step;
      fu; op; write_step; write_bus = Some "B2"; dst }
  in
  { Model.name = "every";
    cs_max = 3;
    registers =
      [ Model.register "R0"; Model.register ~init:(Word.nat 42) "R1";
        Model.register ~init:Word.illegal "R2" ];
    fus =
      [ Model.fu ~latency:3 ~pipelined:false ~sticky_illegal:false
          ~ops:[ Ops.Add; Ops.Shli 3; Ops.Asri 2 ] "U0";
        { (Model.fu ~ops:[ Ops.Sub ] "U1") with Model.ops = [] } ];
    buses = [ "B1"; "B2" ];
    inputs =
      [ { Model.in_name = "X"; drive = Model.Const Word.disc };
        { Model.in_name = "Y"; drive = Model.Schedule [] };
        { Model.in_name = "Z";
          drive = Model.Schedule [ (1, Word.nat 5); (2, Word.illegal) ] } ];
    outputs = [ "O" ];
    transfers =
      [ t ~src_a:(Transfer.From_input "X") ~src_b:(Transfer.From_reg "R1")
          ~read_step:1 ~op:(Ops.Shli 3) ~write_step:3
          ~dst:(Transfer.To_output "O") "U0";
        t "U1"; t ~src_a:(Transfer.From_reg "R0") ~write_step:2
          ~dst:(Transfer.To_reg "R2") "U1" ] }

let test_rtm_to_string_reference () =
  let corpus =
    Sys.readdir "corpus" |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".rtm")
    |> List.map (fun f -> Rtm.of_file (Filename.concat "corpus" f))
  in
  check_bool "corpus found" true (corpus <> []);
  let models =
    (every_construct_model () :: Builder.fig1 () :: corpus)
    @ List.init 30 random_linear_model
    @ List.init 30 (fun seed ->
        Csrtl_verify.Consist.random_model ~conflict:(seed mod 3 = 0) seed)
  in
  List.iter
    (fun (m : Model.t) ->
      Alcotest.(check string) m.name (format_to_string m) (Rtm.to_string m))
    models

let test_rtm_parse_features () =
  let text =
    {|model demo
csmax 9
reg R1 init 3
reg ACC
bus BA BB
unit MUL ops mul latency 2
unit ALU ops add,sub latency 1 nonpipelined transparent-illegal
input X const 5
input Y schedule 1:4 3:9
output OUT
# a read-only tuple and one from an input to an output
transfer R1 BA X! BB 1 MUL 3 BA ACC
transfer ACC BA R1 BB 4 ALU:add - - -
|}
  in
  let m = Rtm.of_string text in
  Alcotest.(check string) "name" "demo" m.Model.name;
  check_int "csmax" 9 m.Model.cs_max;
  check_int "buses" 2 (List.length m.Model.buses);
  check_int "units" 2 (List.length m.Model.fus);
  (match Model.find_fu m "ALU" with
   | Some f ->
     check_bool "nonpipelined" false f.Model.pipelined;
     check_bool "transparent" false f.Model.sticky_illegal;
     check_int "two ops" 2 (List.length f.Model.ops)
   | None -> Alcotest.fail "ALU missing");
  (match m.Model.inputs with
   | [ x; y ] ->
     Alcotest.check word "const" (Word.nat 5) (Model.input_value x 7);
     Alcotest.check word "sched before" Word.disc (Model.input_value y 0);
     Alcotest.check word "sched 1" (Word.nat 4) (Model.input_value y 2);
     Alcotest.check word "sched 3" (Word.nat 9) (Model.input_value y 5)
   | _ -> Alcotest.fail "inputs missing");
  check_int "transfers" 2 (List.length m.Model.transfers);
  (match m.Model.transfers with
   | [ t1; t2 ] ->
     check_bool "input source parsed" true
       (t1.Transfer.src_b = Some (Transfer.From_input "X"));
     check_bool "read-only tuple" true
       (t2.Transfer.write_step = None && t2.Transfer.dst = None)
   | _ -> ());
  Alcotest.(check (list string)) "validates" []
    (List.map (fun (e : Model.error) -> e.message) (Model.validate m))

let test_rtm_errors () =
  let expect_error text frag =
    match Rtm.of_string text with
    | exception Rtm.Parse_error (_, msg) ->
      check_bool
        (Printf.sprintf "error %S mentions %S" msg frag)
        true
        (let nh = String.length msg and nn = String.length frag in
         let rec go i = i + nn <= nh && (String.sub msg i nn = frag || go (i + 1)) in
         nn = 0 || go 0)
    | _ -> Alcotest.fail ("no error for: " ^ text)
  in
  expect_error "csmax 5\nfrobnicate Z\n" "unknown directive";
  expect_error "csmax 5\ntransfer a b\n" "9 tuple fields";
  expect_error "csmax 5\nunit U latency 1\n" "ops list";
  expect_error "reg R1\n" "missing csmax";
  expect_error "csmax 5\nreg R1 init -9\n" "expected a value"

(* -- execution-path ablations are observably identical ------------------- *)

let prop_wait_and_resolution_impls_agree =
  QCheck.Test.make
    ~name:"keyed/predicate waits and incremental/fold resolution agree"
    ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let m = random_linear_model seed in
      let base = (Simulate.run m).Simulate.obs in
      List.for_all
        (fun (wait_impl, resolution_impl) ->
          Observation.equal base
            (Simulate.run ~wait_impl ~resolution_impl m).Simulate.obs)
        [ (`Keyed, `Fold); (`Predicate, `Incremental); (`Predicate, `Fold) ])

let prop_incremental_resolution_equals_fold =
  (* random driver-value transition sequences: the counter-based state
     always reads back what folding the current values would give *)
  QCheck.Test.make ~name:"incremental resolution = fold resolution"
    ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30)
              (pair (int_range 0 4) arbitrary_word))
    (fun transitions ->
      let st = Resolve.incremental () in
      let drivers = Array.make 5 Word.disc in
      Array.iter (fun v -> st.Csrtl_kernel.Types.incr_add v) drivers;
      List.for_all
        (fun (slot, v) ->
          st.Csrtl_kernel.Types.incr_remove drivers.(slot);
          st.Csrtl_kernel.Types.incr_add v;
          drivers.(slot) <- v;
          Word.equal (st.Csrtl_kernel.Types.incr_read ()) (Resolve.resolve drivers))
        transitions)

(* -- waveform + dot rendering ------------------------------------------------ *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_waveform_render () =
  let m = Builder.fig1 () in
  let obs = Interp.run m in
  let text = Waveform.render_full obs in
  check_bool "header row" true (contains text "step");
  check_bool "R1 row" true (contains text "R1");
  check_bool "initial 3" true (contains text "3");
  check_bool "result 7" true (contains text "7");
  (* repeated values elided *)
  check_bool "dittos" true (contains text ".");
  (* conflicts annotated *)
  let c = Interp.run (
    let b = Builder.create ~name:"w" ~cs_max:4 () in
    Builder.reg b ~init:(Word.nat 1) "A";
    Builder.reg b ~init:(Word.nat 2) "B";
    Builder.reg b "Z";
    Builder.buses b [ "BA"; "BB" ];
    Builder.unit_ b ~ops:[ Ops.Add ] "ADD1";
    Builder.unit_ b ~ops:[ Ops.Sub ] "SUB1";
    Builder.binary b ~fu:"ADD1" ~a:(Transfer.From_reg "A", "BA")
      ~b:(Transfer.From_reg "B", "BB") ~read:1 ~write:(2, "BA")
      ~dst:(Transfer.To_reg "Z");
    Builder.binary b ~fu:"SUB1" ~a:(Transfer.From_reg "B", "BA")
      ~b:(Transfer.From_reg "A", "BB") ~read:1 ~write:(2, "BB")
      ~dst:(Transfer.To_reg "Z");
    Builder.finish_unchecked b)
  in
  check_bool "illegal annotated" true
    (contains (Waveform.render_full c) "!! ILLEGAL")

let test_waveform_windowing () =
  (* long quiet run: windowed output stays within max_steps columns *)
  let b = Builder.create ~name:"long" ~cs_max:200 () in
  Builder.reg b ~init:(Word.nat 1) "A";
  Builder.reg b "Z";
  Builder.buses b [ "BA"; "BB" ];
  Builder.unit_ b ~ops:[ Ops.Add ] "ADD";
  Builder.binary b ~fu:"ADD" ~a:(Transfer.From_reg "A", "BA")
    ~b:(Transfer.From_reg "A", "BB") ~read:150 ~write:(151, "BA")
    ~dst:(Transfer.To_reg "Z");
  let obs = Interp.run (Builder.finish b) in
  let text = Waveform.render ~max_steps:8 obs in
  let first_line = List.hd (String.split_on_char '\n' text) in
  check_bool "few columns" true (String.length first_line < 80);
  check_bool "activity step shown" true (contains first_line "151")

let test_coverage_report () =
  let m = Builder.fig1 () in
  let r = Coverage.analyze m in
  check_int "steps" 7 r.Coverage.total_steps;
  check_bool "no dead transfers" true (r.Coverage.dead_transfers = []);
  (* B1 carries a value in steps 5 (read) and 6 (write): 2/7 *)
  (match List.assoc_opt "B1" r.Coverage.bus_utilization with
   | Some u -> check_bool "B1 ~2/7" true (abs_float (u -. (2.0 /. 7.0)) < 1e-9)
   | None -> Alcotest.fail "B1 missing");
  (* R2 has a real init (a constant operand): not reported *)
  check_bool "constant register not flagged" false
    (List.mem "R2" r.Coverage.never_written)

let test_coverage_dead_transfer () =
  (* reading a register nothing ever wrote: the transfer is dead *)
  let b = Builder.create ~name:"dead" ~cs_max:5 () in
  Builder.reg b "EMPTY";
  Builder.reg b "DST";
  Builder.buses b [ "BA"; "BB" ];
  Builder.unit_ b ~ops:[ Ops.Add ] "ADD";
  Builder.binary b ~fu:"ADD"
    ~a:(Transfer.From_reg "EMPTY", "BA")
    ~b:(Transfer.From_reg "EMPTY", "BB")
    ~read:2 ~write:(3, "BA") ~dst:(Transfer.To_reg "DST");
  let m = Builder.finish b in
  let r = Coverage.analyze m in
  check_int "one dead transfer" 1 (List.length r.Coverage.dead_transfers);
  check_bool "DST stays unwritten" true
    (List.mem "DST" r.Coverage.never_written)

let test_phase_view () =
  let m = Builder.fig1 () in
  let text = Waveform.phase_view ~from_step:5 ~to_step:6 m in
  List.iter
    (fun frag -> check_bool frag true (contains text frag))
    [ "step 5"; "rb  B1"; "cm  ADD.in1"; "step 6"; "cr  R1.in" ];
  check_bool "window respected" false (contains text "step 4");
  (* conflicts flagged inline *)
  let c = conflicting_model () in
  check_bool "conflict marker" true
    (contains (Waveform.phase_view c) "<-- conflict")

let test_dot_output () =
  let m = Builder.fig1 () in
  let dot = Dot.to_dot m in
  List.iter
    (fun frag -> check_bool frag true (contains dot frag))
    [ "digraph"; "\"R1\""; "\"ADD\""; "\"B1\""; "5/ra"; "6/wb" ];
  let s = Dot.structure_only m in
  check_bool "structure has no step labels" false (contains s "5/ra");
  check_bool "structure has edges" true (contains s "\"R1\" -> \"B1\"")

(* -- schedule compaction ------------------------------------------------------ *)

let test_compact_fig1 () =
  let m = Builder.fig1 () in
  let before, after = Reschedule.compaction m in
  check_int "before" 7 before;
  check_int "after" 2 after;
  let m' = Reschedule.compact m in
  Alcotest.(check (option word)) "same result" (Some (Word.nat 7))
    (Observation.final_reg (Interp.run m') "R1");
  check_bool "conflict-free" true (Conflict.check m' = [])

let test_compact_preserves_dependent_chain () =
  (* a dependency chain cannot compact below its length *)
  let m = chain_model () in
  let m' = Reschedule.compact m in
  let o = Interp.run m and o' = Interp.run m' in
  Alcotest.(check (option word)) "R2 preserved"
    (Observation.final_reg o "R2")
    (Observation.final_reg o' "R2");
  (* outputs keep their values (steps may shift) *)
  Alcotest.(check (list word)) "output values preserved"
    (List.map snd (Observation.output_writes o "Y"))
    (List.map snd (Observation.output_writes o' "Y"))

let test_compact_pins_scheduled_inputs () =
  let b = Builder.create ~name:"pin" ~cs_max:12 () in
  Builder.input b ~schedule:[ (1, Word.nat 5); (8, Word.nat 9) ] "X";
  Builder.reg b ~init:(Word.nat 1) "R1";
  Builder.reg b "R2";
  Builder.buses b [ "BA"; "BB" ];
  Builder.unit_ b ~ops:[ Ops.Add ] "ADD";
  (* reads the scheduled input at step 9: must not move *)
  Builder.binary b ~fu:"ADD"
    ~a:(Transfer.From_input "X", "BA")
    ~b:(Transfer.From_reg "R1", "BB")
    ~read:9 ~write:(10, "BA") ~dst:(Transfer.To_reg "R2");
  let m = Builder.finish b in
  let m' = Reschedule.compact m in
  (match m'.Model.transfers with
   | [ t ] ->
     Alcotest.(check (option int)) "pinned" (Some 9) t.Transfer.read_step
   | _ -> Alcotest.fail "one transfer");
  Alcotest.(check (option word)) "reads the step-9 value (9+1)"
    (Some (Word.nat 10))
    (Observation.final_reg (Interp.run m') "R2")

let test_compact_mac_order_preserved () =
  (* accumulator units: values fold over reads in order; compaction
     keeps the order and the results *)
  let build () =
    let b = Builder.create ~name:"mac" ~cs_max:8 () in
    Builder.reg b ~init:(Word.nat 7) "C0";
    Builder.reg b ~init:(Word.nat 12) "C1";
    Builder.reg b "ACC";
    Builder.input b ~value:(Word.nat 3) "X0";
    Builder.input b ~value:(Word.nat 5) "X1";
    Builder.buses b [ "BA"; "BB" ];
    Builder.unit_ b ~ops:[ Ops.Mac ] "MACC";
    Builder.binary b ~fu:"MACC"
      ~a:(Transfer.From_input "X0", "BA")
      ~b:(Transfer.From_reg "C0", "BB")
      ~read:1 ~write:(2, "BA") ~dst:(Transfer.To_reg "ACC");
    Builder.binary b ~fu:"MACC"
      ~a:(Transfer.From_input "X1", "BA")
      ~b:(Transfer.From_reg "C1", "BB")
      ~read:3 ~write:(4, "BA") ~dst:(Transfer.To_reg "ACC");
    Builder.finish b
  in
  let m = build () in
  let m' = Reschedule.compact m in
  check_bool "compacted" true (m'.Model.cs_max < m.Model.cs_max);
  Alcotest.(check (option word)) "21 + 60" (Some (Word.nat 81))
    (Observation.final_reg (Interp.run m') "ACC");
  (* reads stay in order on the unit *)
  (match m'.Model.transfers with
   | [ t1; t2 ] ->
     check_bool "order kept" true
       (Option.get t1.Transfer.read_step < Option.get t2.Transfer.read_step)
   | _ -> Alcotest.fail "two transfers")

let test_compact_pins_resettable_stateful_unit () =
  (* a stateful unit with other operations resets on idle steps: its
     tuples must not move at all *)
  let b = Builder.create ~name:"macmix" ~cs_max:9 () in
  Builder.reg b ~init:(Word.nat 2) "K";
  Builder.reg b "ACC";
  Builder.input b ~value:(Word.nat 3) "X";
  Builder.buses b [ "BA"; "BB" ];
  Builder.unit_ b ~ops:[ Ops.Mac; Ops.Add ] "MACC";
  Builder.binary b ~fu:"MACC"
    ~a:(Transfer.From_input "X", "BA")
    ~b:(Transfer.From_reg "K", "BB")
    ~read:5 ~write:(6, "BA") ~dst:(Transfer.To_reg "ACC");
  let m = Builder.finish b in
  let m' = Reschedule.compact m in
  (match m'.Model.transfers with
   | [ t ] ->
     Alcotest.(check (option int)) "pinned" (Some 5) t.Transfer.read_step
   | _ -> Alcotest.fail "one transfer");
  Alcotest.(check (option word)) "same value"
    (Observation.final_reg (Interp.run m) "ACC")
    (Observation.final_reg (Interp.run m') "ACC")

let test_compact_idempotent () =
  let m = Reschedule.compact (Builder.fig1 ()) in
  let m2 = Reschedule.compact m in
  check_int "fixpoint" m.Model.cs_max m2.Model.cs_max

let prop_compact_preserves_final_registers =
  QCheck.Test.make ~name:"compaction preserves final register values"
    ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let m = random_linear_model seed in
      let m' = Reschedule.compact m in
      let o = Interp.run m and o' = Interp.run m' in
      m'.Model.cs_max <= m.Model.cs_max
      && List.for_all
           (fun (r : Model.register) ->
             Observation.final_reg o r.Model.reg_name
             = Observation.final_reg o' r.Model.reg_name)
           m.Model.registers
      && Conflict.check m' = [])

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "core"
    [ ( "word",
        [ Alcotest.test_case "sentinels" `Quick test_word_sentinels;
          Alcotest.test_case "signed view" `Quick test_word_signed ] );
      ( "phase",
        [ Alcotest.test_case "order and cycle" `Quick test_phase_order ] );
      ( "resolution",
        [ Alcotest.test_case "paper cases" `Quick
            test_resolution_paper_cases ] );
      qsuite "resolution-props"
        [ prop_resolution_commutative; prop_resolution_associative;
          prop_resolution_unit; prop_resolution_nat_only_when_unique ];
      ( "ops",
        [ Alcotest.test_case "eval" `Quick test_ops_eval;
          Alcotest.test_case "sentinel lifting" `Quick
            test_ops_apply_lifting;
          Alcotest.test_case "string roundtrip" `Quick
            test_ops_string_roundtrip ] );
      ( "tuples",
        [ Alcotest.test_case "decompose fig1" `Quick test_decompose_fig1;
          Alcotest.test_case "compose partial tuples" `Quick
            test_compose_recovers_partial_tuples;
          Alcotest.test_case "merge restores full tuple" `Quick
            test_merge_restores_full_tuple;
          Alcotest.test_case "printing" `Quick test_tuple_printing;
          Alcotest.test_case "partial tuples execute" `Quick
            test_partial_tuples_via_builder ] );
      qsuite "tuple-props" [ prop_decompose_compose_roundtrip ];
      ( "fig1",
        [ Alcotest.test_case "kernel result" `Quick test_fig1_kernel;
          Alcotest.test_case "delta-cycle law" `Quick test_fig1_delta_law;
          Alcotest.test_case "interpreter consistency" `Quick
            test_fig1_interp_matches_kernel;
          Alcotest.test_case "register timeline" `Quick
            test_fig1_register_timeline ] );
      ( "models",
        [ Alcotest.test_case "inputs and outputs" `Quick test_inputs_outputs;
          Alcotest.test_case "two-stage pipeline" `Quick
            test_pipelined_two_stage;
          Alcotest.test_case "non-pipelined overlap poisons" `Quick
            test_nonpipelined_overlap_illegal;
          Alcotest.test_case "multi-op unit" `Quick test_multi_op_unit ] );
      ( "conflicts",
        [ Alcotest.test_case "static double drive" `Quick
            test_conflict_static_detection;
          Alcotest.test_case "dynamic localization" `Quick
            test_conflict_dynamic_localization;
          Alcotest.test_case "op clash" `Quick test_op_clash_detected;
          Alcotest.test_case "validation errors" `Quick
            test_validation_errors;
          Alcotest.test_case "latency contract" `Quick
            test_latency_contract_validated ] );
      ( "reschedule",
        [ Alcotest.test_case "fig1 compacts to 2 steps" `Quick
            test_compact_fig1;
          Alcotest.test_case "dependent chain preserved" `Quick
            test_compact_preserves_dependent_chain;
          Alcotest.test_case "scheduled inputs pinned" `Quick
            test_compact_pins_scheduled_inputs;
          Alcotest.test_case "accumulator order preserved" `Quick
            test_compact_mac_order_preserved;
          Alcotest.test_case "resettable stateful unit pinned" `Quick
            test_compact_pins_resettable_stateful_unit;
          Alcotest.test_case "idempotent" `Quick test_compact_idempotent ] );
      qsuite "reschedule-props"
        [ prop_compact_preserves_final_registers;
          QCheck.Test.make ~name:"compaction is idempotent" ~count:25
            QCheck.(int_range 0 10_000)
            (fun seed ->
              let m = Reschedule.compact (random_linear_model seed) in
              Reschedule.compact m = m) ];
      ( "render",
        [ Alcotest.test_case "coverage report" `Quick test_coverage_report;
          Alcotest.test_case "dead transfer detection" `Quick
            test_coverage_dead_transfer;
          Alcotest.test_case "waveform" `Quick test_waveform_render;
          Alcotest.test_case "waveform windowing" `Quick
            test_waveform_windowing;
          Alcotest.test_case "phase view" `Quick test_phase_view;
          Alcotest.test_case "dot" `Quick test_dot_output ] );
      ( "rtm",
        [ Alcotest.test_case "roundtrip" `Quick test_rtm_roundtrip;
          Alcotest.test_case "feature parsing" `Quick
            test_rtm_parse_features;
          Alcotest.test_case "errors" `Quick test_rtm_errors;
          Alcotest.test_case "to_string = the Format reference" `Quick
            test_rtm_to_string_reference ] );
      qsuite "rtm-props"
        [ QCheck.Test.make ~name:"rtm print/parse identity on random models"
            ~count:30
            QCheck.(int_range 0 10_000)
            (fun seed ->
              let m = random_linear_model seed in
              Rtm.of_string (Rtm.to_string m) = m) ];
      qsuite "consistency-props"
        [ prop_kernel_interp_consistent; prop_delta_law;
          prop_wait_and_resolution_impls_agree;
          prop_incremental_resolution_equals_fold ] ]
