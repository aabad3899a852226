(* Tests of the fault-injection subsystem: the taxonomy, the campaign
   classifier, exact conflict localization, kernel/interpreter
   agreement on faulted runs, and the Simulate failure policies. *)

module C = Csrtl_core
module F = Csrtl_fault
module V = Csrtl_verify

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fig1 () = C.Rtm.of_file (Filename.concat "corpus" "fig1.rtm")

(* -- campaign over fig1 ---------------------------------------------------- *)

let test_fig1_campaign_classifies_everything () =
  let m = fig1 () in
  let r = F.Campaign.run m in
  check_bool "enumerated some faults" true (r.F.Campaign.total > 10);
  check_int "no fault crashed either path" 0 r.F.Campaign.crashed;
  check_int "no fault hung the kernel" 0 r.F.Campaign.hung;
  check_int "kernel and interpreter agree on every fault" 0
    r.F.Campaign.disagreements;
  check_int "delta-cycle law held on all masked runs" 0
    r.F.Campaign.law_violations;
  check_bool "something was detected" true (r.F.Campaign.detected > 0);
  (* every stuck-at-ILLEGAL bus fault must be detected: the conflict
     monitor sits exactly on the resolution output *)
  List.iter
    (fun (e : F.Campaign.entry) ->
      match e.F.Campaign.fault with
      | F.Fault.Stuck_sink { sink; value }
        when C.Word.is_illegal value && List.mem sink m.C.Model.buses ->
        (match e.F.Campaign.kernel_outcome with
         | F.Campaign.Detected (_, _, s) ->
           Alcotest.(check string) "localized on the stuck sink" sink s
         | o ->
           Alcotest.failf "stuck-ILLEGAL on %s not detected: %a" sink
             F.Campaign.pp_outcome o)
      | _ -> ())
    r.F.Campaign.entries

let test_transient_localization () =
  (* a transient ILLEGAL at one visibility slot must be reported at
     exactly that (step, phase, sink) by both paths *)
  let m = fig1 () in
  let legs, _ = C.Model.all_legs m in
  let l =
    List.find
      (fun (l : C.Transfer.leg) ->
        List.mem (C.Transfer.endpoint_name l.dst) m.C.Model.buses)
      legs
  in
  let sink = C.Transfer.endpoint_name l.dst in
  let step = l.C.Transfer.step and phase = C.Phase.succ l.C.Transfer.phase in
  let inject = C.Inject.transient_sink ~sink ~step ~phase C.Word.illegal in
  let kr = C.Simulate.run ~inject m in
  let io = C.Interp.run ~inject m in
  let conflict =
    Alcotest.testable
      (fun ppf (s, p, n) ->
        Format.fprintf ppf "(%d, %s, %s)" s (C.Phase.to_string p) n)
      ( = )
  in
  let sort =
    List.sort (fun (s1, p1, n1) (s2, p2, n2) ->
        compare (s1, C.Phase.to_int p1, n1) (s2, C.Phase.to_int p2, n2))
  in
  let kc = sort kr.C.Simulate.obs.C.Observation.conflicts in
  let ic = sort io.C.Observation.conflicts in
  (* the earliest conflict is exactly the injected visibility slot;
     later entries are legitimate downstream ILLEGAL propagation *)
  (match kc with
   | first :: _ ->
     Alcotest.(check conflict) "kernel localizes the hit slot"
       (step, phase, sink) first
   | [] -> Alcotest.fail "kernel saw no conflict");
  Alcotest.(check (list conflict))
    "interpreter reports the identical conflict set" kc ic

let test_dropped_legs_never_hang () =
  (* an open switch either masks, corrupts, or surfaces as a conflict
     through sentinel lifting (a unit fed DISC computes ILLEGAL) — it
     must never hang or crash the kernel, and the campaign must
     observe at least one actual corruption on fig1 *)
  let m = fig1 () in
  let r = F.Campaign.run m in
  let drops =
    List.filter
      (fun (e : F.Campaign.entry) ->
        match e.F.Campaign.fault with
        | F.Fault.Dropped_leg _ -> true
        | _ -> false)
      r.F.Campaign.entries
  in
  check_bool "has dropped-leg faults" true (drops <> []);
  List.iter
    (fun (e : F.Campaign.entry) ->
      match e.F.Campaign.kernel_outcome with
      | F.Campaign.Masked | F.Campaign.Corrupted _ | F.Campaign.Detected _ ->
        ()
      | o ->
        Alcotest.failf "dropped leg should not hang or crash, got %a"
          F.Campaign.pp_outcome o)
    drops;
  check_bool "at least one drop visibly changes the run" true
    (List.exists
       (fun (e : F.Campaign.entry) -> e.F.Campaign.kernel_outcome <> F.Campaign.Masked)
       drops)

(* -- Simulate failure policies --------------------------------------------- *)

let stuck_illegal_on_first_bus m =
  C.Inject.stuck_sink ~sink:(List.hd m.C.Model.buses) C.Word.illegal

let test_halt_policy_stops_at_first_conflict () =
  let m = fig1 () in
  let inject = stuck_illegal_on_first_bus m in
  let recorded = C.Simulate.run ~inject m in
  let halted = C.Simulate.run ~inject ~on_illegal:C.Simulate.Halt m in
  match
    recorded.C.Simulate.obs.C.Observation.conflicts,
    halted.C.Simulate.outcome
  with
  | (s, p, n) :: _, C.Simulate.Halted (s', p', n') ->
    check_int "same step" s s';
    check_bool "same phase" true (C.Phase.equal p p');
    Alcotest.(check string) "same sink" n n';
    check_bool "halted earlier than the full run" true
      (halted.C.Simulate.cycles <= recorded.C.Simulate.cycles)
  | [], _ -> Alcotest.fail "expected the stuck fault to conflict"
  | _, o ->
    Alcotest.failf "expected Halted, got %a" C.Simulate.pp_outcome o

let test_degrade_policy_keeps_last_good_state () =
  let m = fig1 () in
  let inject = stuck_illegal_on_first_bus m in
  let r = C.Simulate.run ~inject ~on_illegal:C.Simulate.Degrade m in
  check_bool "still records the conflicts" true
    (r.C.Simulate.obs.C.Observation.conflicts <> []);
  List.iter
    (fun (reg, arr) ->
      Array.iteri
        (fun i v ->
          check_bool
            (Printf.sprintf "%s[%d] never latches ILLEGAL" reg i)
            false (C.Word.is_illegal v))
        arr)
    r.C.Simulate.obs.C.Observation.regs;
  List.iter
    (fun (out, writes) ->
      List.iter
        (fun (_, v) ->
          check_bool
            (Printf.sprintf "%s never samples ILLEGAL" out)
            false (C.Word.is_illegal v))
        writes)
    r.C.Simulate.obs.C.Observation.outputs

let test_watchdog_quiet_on_clean_run () =
  let m = fig1 () in
  let r = C.Simulate.run ~watchdog:true m in
  (match r.C.Simulate.outcome with
   | C.Simulate.Finished -> ()
   | o -> Alcotest.failf "expected Finished, got %a" C.Simulate.pp_outcome o);
  check_int "law" (C.Simulate.expected_cycles m) r.C.Simulate.cycles

let test_unknown_saboteur_sink_rejected () =
  let m = fig1 () in
  let inject =
    C.Inject.extra_driver ~sink:"NO_SUCH_BUS" ~step:1 ~phase:C.Phase.Ra 1
  in
  match C.Simulate.run ~inject m with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i =
        i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
      in
      go 0
    in
    check_bool "names the missing resource" true
      (contains msg "NO_SUCH_BUS")

(* -- outcome-constructor coverage ------------------------------------------ *)

(* Every [Campaign.outcome] constructor, exercised on BOTH engines.
   fig1's enumerated faults cover Masked/Detected/Corrupted; an
   oscillator (metastable net) covers Hung — kernel watchdog trip,
   interpreter missing-fixpoint proof; an injection on an undeclared
   sink covers Crashed with the same diagnostic on both paths. *)

let test_hung_outcome_on_both_engines () =
  let m = fig1 () in
  let fault =
    F.Fault.Oscillator
      { sink = List.hd m.C.Model.buses; step = 1; phase = C.Phase.Ra }
  in
  let r = F.Campaign.run ~faults:[ fault ] m in
  check_int "classified hung" 1 r.F.Campaign.hung;
  check_int "both engines agree" 0 r.F.Campaign.disagreements;
  match r.F.Campaign.entries with
  | [ e ] ->
    (match e.F.Campaign.kernel_outcome, e.F.Campaign.interp_outcome with
     | F.Campaign.Hung _, F.Campaign.Hung _ -> ()
     | k, i ->
       Alcotest.failf "expected Hung/Hung, got %a / %a"
         F.Campaign.pp_outcome k F.Campaign.pp_outcome i)
  | es -> Alcotest.failf "expected one entry, got %d" (List.length es)

let test_crashed_outcome_on_both_engines () =
  let m = fig1 () in
  let fault =
    F.Fault.Extra_driver
      { sink = "NO_SUCH_BUS"; step = 1; phase = C.Phase.Ra; value = 1 }
  in
  let r = F.Campaign.run ~faults:[ fault ] m in
  check_int "classified crashed" 1 r.F.Campaign.crashed;
  check_int "both engines agree" 0 r.F.Campaign.disagreements;
  match r.F.Campaign.entries with
  | [ e ] ->
    (match e.F.Campaign.kernel_outcome, e.F.Campaign.interp_outcome with
     | F.Campaign.Crashed _, F.Campaign.Crashed _ -> ()
     | k, i ->
       Alcotest.failf "expected Crashed/Crashed, got %a / %a"
         F.Campaign.pp_outcome k F.Campaign.pp_outcome i)
  | es -> Alcotest.failf "expected one entry, got %d" (List.length es)

let test_every_outcome_constructor_covered () =
  let m = fig1 () in
  let faults =
    F.Fault.enumerate m
    @ [ F.Fault.Oscillator
          { sink = List.hd m.C.Model.buses; step = 1; phase = C.Phase.Ra };
        F.Fault.Extra_driver
          { sink = "NO_SUCH_BUS"; step = 1; phase = C.Phase.Ra; value = 1 } ]
  in
  let r = F.Campaign.run ~faults m in
  check_int "engines agree on every entry" 0 r.F.Campaign.disagreements;
  List.iter
    (fun (engine, pick) ->
      let covered name pred =
        check_bool
          (Printf.sprintf "%s present in %s outcomes" name engine)
          true
          (List.exists
             (fun (e : F.Campaign.entry) -> pred (pick e))
             r.F.Campaign.entries)
      in
      covered "Masked" (function F.Campaign.Masked -> true | _ -> false);
      covered "Detected" (function
        | F.Campaign.Detected _ -> true
        | _ -> false);
      covered "Corrupted" (function
        | F.Campaign.Corrupted _ -> true
        | _ -> false);
      covered "Hung" (function F.Campaign.Hung _ -> true | _ -> false);
      covered "Crashed" (function F.Campaign.Crashed _ -> true | _ -> false))
    [ ("kernel", fun (e : F.Campaign.entry) -> e.F.Campaign.kernel_outcome);
      ("interp", fun (e : F.Campaign.entry) -> e.F.Campaign.interp_outcome) ]

(* The report text [csrtl inject] prints is built by concatenation;
   [pp_entry] and [pp_report] are its [Format] specification.  Cover
   every outcome constructor (from real runs, so the hung and crashed
   messages are the engines' own), labels around and past the 50-column
   pad, a disagreeing row, and both coverage and law-summary forms. *)
let test_render_report_matches_printers () =
  let reference ~table (r : F.Campaign.report) =
    String.concat ""
      ((if table then
          List.map
            (fun e -> Format.asprintf "%a\n" F.Campaign.pp_entry e)
            r.F.Campaign.entries
        else [])
       @ [ Format.asprintf "%a\n" F.Campaign.pp_report r ])
  in
  let same name r =
    List.iter
      (fun table ->
        Alcotest.(check string)
          (Printf.sprintf "%s, table %b" name table)
          (reference ~table r)
          (F.Campaign.render_report ~table r))
      [ true; false ]
  in
  let m = fig1 () in
  let real =
    F.Campaign.run m
      ~faults:
        (F.Fault.enumerate m
        @ [ F.Fault.Oscillator
              { sink = List.hd m.C.Model.buses; step = 1; phase = C.Phase.Ra };
            F.Fault.Extra_driver
              { sink = "NO_SUCH_BUS"; step = 1; phase = C.Phase.Ra;
                value = 1 } ])
  in
  same "fig1 with hung and crashed" real;
  let entry desc kernel_outcome interp_outcome =
    { F.Campaign.fault = F.Fault.Dropped_leg { index = 3; desc };
      kernel_outcome; interp_outcome; kernel_cycles = 42; law_ok = false }
  in
  (* "dropped leg #3 (" + desc + ")" is 17 + |desc| bytes *)
  let synthetic =
    { real with
      F.Campaign.coverage = None;
      law_violations = 2;
      entries =
        [ entry (String.make 32 'a') F.Campaign.Masked F.Campaign.Masked;
          entry (String.make 33 'b')
            (F.Campaign.Detected (7, C.Phase.Wb, "BUS_X"))
            (F.Campaign.Detected (7, C.Phase.Wb, "BUS_X"));
          entry (String.make 34 'c')
            (F.Campaign.Corrupted { count = 12; first = "A@3: 1 vs 2" })
            (F.Campaign.Corrupted { count = 11; first = "B@3: 1 vs 2" });
          entry (String.make 60 'd') (F.Campaign.Hung "watchdog tripped")
            (F.Campaign.Crashed "Failure(\"boom\")");
          entry "short" F.Campaign.Masked
            (F.Campaign.Corrupted { count = 1; first = "x" }) ] }
  in
  same "synthetic labels, disagreement, no coverage" synthetic

(* Fault labels are built by concatenation, and they are what journals
   hash into their fault-list digest: one literal per constructor pins
   them, with DISC, ILLEGAL and negative words, a unit-input endpoint,
   and the labels [Fault.enumerate] derives from a chain's legs. *)
let test_fault_labels () =
  let label = Alcotest.(check string) in
  let open F.Fault in
  List.iter
    (fun (want, f) -> label want want (to_string f))
    [ ("stuck-at DISC on BA", Stuck_sink { sink = "BA"; value = C.Word.disc });
      ( "stuck-at ILLEGAL on R1.out",
        Stuck_sink { sink = "R1.out"; value = C.Word.illegal } );
      ( "dropped leg #14 (BA -> U.in1 @5/rb)",
        Dropped_leg { index = 14; desc = "BA -> U.in1 @5/rb" } );
      ( "extra driver -7 on B2 during (3, wa)",
        Extra_driver { sink = "B2"; step = 3; phase = C.Phase.Wa; value = -7 } );
      ( "latency of MUL forced to 0",
        Fu_latency { fu = "MUL"; latency = 0 } );
      ( "transient ILLEGAL on U.in2 at (12, cm)",
        Transient
          { sink = "U.in2"; step = 12; phase = C.Phase.Cm;
            value = C.Word.illegal } );
      ( "oscillator on BB from (1, cr)",
        Oscillator { sink = "BB"; step = 1; phase = C.Phase.Cr } ) ];
  Alcotest.(check string) "Fault.pp prints the label"
    "transient 11 on BA at (1, rb)"
    (Format.asprintf "%a" pp
       (Transient { sink = "BA"; step = 1; phase = C.Phase.Rb; value = 11 }));
  let labels = List.map to_string (enumerate (Chain_model.chain 2)) in
  List.iter
    (fun want ->
      check_bool want true (List.mem want labels))
    [ "stuck-at 13 on BB"; "stuck-at 9 on A.out";
      "dropped leg #2 (BA -> U.in1 @1/rb)";
      "dropped leg #5 (BA -> B.in @2/wb)";
      "extra driver 7 on BA during (1, ra)";
      "extra driver 7 on BB during (1, rb)";
      "latency of U forced to 2";
      "transient ILLEGAL on BA at (1, rb)"; "transient 11 on BB at (1, rb)" ]

(* -- checkpoint restore ----------------------------------------------------- *)

let report_string r = Format.asprintf "%a" F.Campaign.pp_report r

let entries_string r =
  String.concat "\n"
    (List.map
       (fun e -> Format.asprintf "%a" F.Campaign.pp_entry e)
       r.F.Campaign.entries)

let test_restore_matches_scratch () =
  (* the checkpoint fast path must not change a single classification:
     same report, same per-fault table *)
  let m = fig1 () in
  let on = F.Campaign.run ~restore:true m in
  let off = F.Campaign.run ~restore:false m in
  Alcotest.(check string) "report bytes" (report_string off)
    (report_string on);
  Alcotest.(check string) "table bytes" (entries_string off)
    (entries_string on)

let test_first_step_sound () =
  (* soundness of the resume boundary: injecting the fault into a run
     resumed at [first_step - 1] classifies identically to a scratch
     run — checked implicitly by restore_matches_scratch; here the
     bound itself is sanity-checked against the schedule *)
  let m = fig1 () in
  List.iter
    (fun f ->
      let fs = F.Fault.first_step m f in
      check_bool
        (Format.asprintf "%a: first_step %d in range" F.Fault.pp f fs)
        true
        (fs >= 1 && fs <= m.C.Model.cs_max + 1))
    (F.Fault.enumerate m);
  (* a transient at (s, ra) can coincide with step s-1 releases *)
  check_int "ra transient reaches back" 4
    (F.Fault.first_step m
       (F.Fault.Transient
          { sink = "B1"; step = 5; phase = C.Phase.Ra; value = 3 }))

(* -- leg facts and diff strings: table-driven = list-walking ------------- *)

(* The list-walking definitions the leg table ({!C.Legs}) replaced,
   kept as the reference: they rebuild [Model.all_legs] per call. *)
let ref_first_step (m : C.Model.t) fault =
  let legs, _ = C.Model.all_legs m in
  let first_write sink =
    List.fold_left
      (fun acc (l : C.Transfer.leg) ->
        if C.Transfer.endpoint_name l.dst = sink then min acc l.step else acc)
      (m.cs_max + 1) legs
  in
  match fault with
  | F.Fault.Fu_latency _ -> 1
  | F.Fault.Dropped_leg { index; _ } ->
    (match List.nth_opt legs index with
     | Some l -> l.C.Transfer.step
     | None -> 1)
  | F.Fault.Extra_driver { step; _ } | F.Fault.Oscillator { step; _ } -> step
  | F.Fault.Transient { step; phase; _ } ->
    if C.Phase.equal phase C.Phase.Ra then max 1 (step - 1) else step
  | F.Fault.Stuck_sink { sink; _ } ->
    let reg_of_out =
      if Filename.check_suffix sink ".out" then
        C.Model.find_register m (Filename.chop_suffix sink ".out")
      else None
    in
    (match reg_of_out with
     | Some r ->
       if not (C.Word.is_disc r.C.Model.init) then 1
       else first_write (r.C.Model.reg_name ^ ".in")
     | None ->
       if
         List.mem sink m.buses
         || List.exists
              (fun (l : C.Transfer.leg) ->
                C.Transfer.endpoint_name l.dst = sink)
              legs
       then first_write sink
       else 1)

let ref_last_step (m : C.Model.t) fault =
  let clamp s = min (max s 1) m.cs_max in
  match fault with
  | F.Fault.Stuck_sink _ | F.Fault.Fu_latency _ | F.Fault.Oscillator _ ->
    m.cs_max
  | F.Fault.Dropped_leg { index; _ } ->
    let legs, _ = C.Model.all_legs m in
    (match List.nth_opt legs index with
     | Some l -> clamp l.C.Transfer.step
     | None -> 1)
  | F.Fault.Extra_driver { step; _ } | F.Fault.Transient { step; _ } ->
    clamp step

let ref_expected_cycles_injected ~(inject : C.Inject.t) (m : C.Model.t) s0 =
  let legs, _ = C.Model.all_legs m in
  let surviving_wb_leg =
    let i = ref (-1) in
    List.exists
      (fun (l : C.Transfer.leg) ->
        incr i;
        l.C.Transfer.step = m.cs_max
        && C.Phase.equal l.C.Transfer.phase C.Phase.Wb
        && not (C.Inject.drops_leg inject !i))
      legs
  in
  let wb_saboteur =
    List.exists
      (fun (sb : C.Inject.saboteur) ->
        sb.C.Inject.sab_step = m.cs_max
        && C.Phase.equal sb.C.Inject.sab_phase C.Phase.Wb)
      inject.C.Inject.saboteurs
  in
  (C.Phase.count * (m.cs_max - s0))
  + if surviving_wb_leg || wb_saboteur then 1 else 0

(* [Observation.diff] as it was written with [Format.kasprintf]: the
   strings journals persist must not change by one byte. *)
let ref_diff a b =
  let a = C.Observation.normalize a and b = C.Observation.normalize b in
  let out = ref [] in
  let say fmt = Format.kasprintf (fun s -> out := s :: !out) fmt in
  if a.cs_max <> b.cs_max then say "cs_max: %d vs %d" a.cs_max b.cs_max;
  let reg_names (o : C.Observation.t) = List.map fst o.regs in
  if reg_names a <> reg_names b then
    say "register sets differ: [%s] vs [%s]"
      (String.concat " " (reg_names a))
      (String.concat " " (reg_names b))
  else
    List.iter2
      (fun (n, va) (_, vb) ->
        if va <> vb then
          Array.iteri
            (fun i x ->
              if i < Array.length vb && x <> vb.(i) then
                say "%s at step %d: %s vs %s" n (i + 1) (C.Word.to_string x)
                  (C.Word.to_string vb.(i)))
            va)
      a.regs b.regs;
  if a.outputs <> b.outputs then say "output traces differ";
  if a.conflicts <> b.conflicts then begin
    let show (s, p, n) =
      Printf.sprintf "%d/%s:%s" s (C.Phase.to_string p) n
    in
    say "conflicts: [%s] vs [%s]"
      (String.concat " " (List.map show a.conflicts))
      (String.concat " " (List.map show b.conflicts))
  end;
  List.rev !out

(* A corruption witness is the diff's length and first line. *)
let obs_witness a b =
  C.Observation.(witness_normalized (normalize a) (normalize b))

let ref_witness a b =
  match C.Observation.diff a b with
  | [] -> None
  | first :: _ as ds -> Some (List.length ds, first)

(* Every enumerated fault, plus out-of-range leg indices, stuck unit
   inputs and an undeclared sink, and a plan dropping every final-step
   [wb] leg at once (a [wb] saboteur there too), against the reference
   definitions; and every faulted interpreter observation's diff
   against the kasprintf one and its witness against the diff, both
   ways round and against reshaped goldens, and its classification's
   witness against the diff of the conflict-free parts. *)
let leg_facts_agree (m : C.Model.t) =
  let lf = C.Legs.of_model m in
  let where f = Format.asprintf "%s: %a" m.C.Model.name F.Fault.pp f in
  let nlegs = List.length (fst (C.Model.all_legs m)) in
  let faults =
    F.Fault.enumerate m
    @ [ F.Fault.Dropped_leg { index = nlegs; desc = "past the end" };
        F.Fault.Dropped_leg { index = nlegs + 7; desc = "far past" };
        F.Fault.Stuck_sink { sink = "nowhere"; value = 1 } ]
    @ List.concat_map
        (fun (u : C.Model.fu) ->
          List.map
            (fun port ->
              F.Fault.Stuck_sink { sink = u.fu_name ^ port; value = 1 })
            [ ".in1"; ".in2"; ".op" ])
        m.C.Model.fus
  in
  List.iter
    (fun f ->
      check_int (where f ^ " first_step") (ref_first_step m f)
        (F.Fault.first_step_in lf f);
      check_int (where f ^ " last_step") (ref_last_step m f)
        (F.Fault.last_step_in lf f);
      let inject = F.Fault.to_inject f in
      List.iter
        (fun s0 ->
          check_int
            (Printf.sprintf "%s expected cycles from %d" (where f) s0)
            (ref_expected_cycles_injected ~inject m s0)
            (C.Simulate.expected_cycles_with lf ~inject s0))
        [ 0; max 0 (F.Campaign.boundary_of_fault m f) ])
    faults;
  let all_wb =
    { C.Inject.none with
      drop_legs = Array.to_list lf.C.Legs.final_wb;
      saboteurs =
        [ { C.Inject.sab_sink = "none"; sab_step = m.C.Model.cs_max;
            sab_phase = C.Phase.Wb; sab_value = 1 } ] }
  in
  List.iter
    (fun inject ->
      check_int (m.C.Model.name ^ " final wb plan")
        (ref_expected_cycles_injected ~inject m 0)
        (C.Simulate.expected_cycles_with lf ~inject 0))
    [ all_wb; { all_wb with saboteurs = [] } ];
  let golden = C.Interp.run m in
  let reshaped =
    [ golden;
      { golden with cs_max = golden.cs_max + 1 };
      { golden with
        regs =
          (match List.rev golden.regs with
           | _ :: rest -> List.rev rest
           | [] -> [ ("extra", [||]) ]) };
      { golden with outputs = ("extra", [ (1, 3) ]) :: golden.outputs };
      { golden with conflicts = [ (1, C.Phase.Wa, "X"); (1, C.Phase.Ra, "Y") ] }
    ]
  in
  List.iter
    (fun f ->
      match C.Interp.run ~inject:(F.Fault.to_inject f) m with
      | exception C.Interp.Unstable _ -> ()
      | o ->
        let witness = Alcotest.(option (pair int string)) in
        List.iter
          (fun g ->
            Alcotest.(check (list string)) (where f ^ " diff")
              (ref_diff g o) (C.Observation.diff g o);
            Alcotest.(check (list string)) (where f ^ " diff reversed")
              (ref_diff o g) (C.Observation.diff o g);
            Alcotest.check witness (where f ^ " witness") (ref_witness g o)
              (obs_witness g o);
            Alcotest.check witness (where f ^ " witness reversed")
              (ref_witness o g) (obs_witness o g))
          reshaped;
        (match F.Campaign.classify ~golden o with
         | F.Campaign.Corrupted { count; first } ->
           let strip (x : C.Observation.t) = { x with conflicts = [] } in
           Alcotest.check witness (where f ^ " corrupted outcome")
             (ref_witness (strip golden) (strip o))
             (Some (count, first))
         | _ -> ()))
    (F.Fault.enumerate m)

let corpus_models () =
  Sys.readdir "corpus" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".rtm")
  |> List.sort compare
  |> List.map (fun f -> C.Rtm.of_file (Filename.concat "corpus" f))

let test_leg_facts_corpus () = List.iter leg_facts_agree (corpus_models ())

let leg_facts_property =
  QCheck.Test.make ~name:"leg table and diff strings = reference" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      leg_facts_agree (V.Consist.random_model ~conflict:(seed mod 3 = 0) seed);
      true)

(* A dropped leg patches exactly its own slot: read through
   [Sched.slot], the overlay equals the base compile with the dropped
   leg's action filtered out of every slot, every other slot is
   physically the base's, the overlay shares the base's table, and
   [last_patched] is the highest slot that changed. *)
let test_overlay_patches_own_slot () =
  List.iter
    (fun (m : C.Model.t) ->
      let base = C.Sched.compile m in
      Array.iteri
        (fun leg _ ->
          let inject = C.Inject.dropped_leg leg in
          let o = C.Sched.overlay base inject in
          let last = ref (-1) in
          Array.iteri
            (fun k acts ->
              let prov = base.C.Sched.slot_prov.(k) in
              let kept =
                List.filteri (fun i _ -> prov.(i) <> leg) (Array.to_list acts)
              in
              if List.length kept <> Array.length acts then last := k
              else
                check_bool
                  (Printf.sprintf "%s leg %d: slot %d shared" m.C.Model.name
                     leg k)
                  true
                  (C.Sched.slot o k == acts);
              check_bool
                (Printf.sprintf "%s leg %d: slot %d contents" m.C.Model.name
                   leg k)
                true
                (Array.to_list (C.Sched.slot o k) = kept))
            base.C.Sched.slots;
          check_bool
            (Printf.sprintf "%s leg %d: slot table shared" m.C.Model.name leg)
            true
            (o.C.Sched.slots == base.C.Sched.slots);
          check_int
            (Printf.sprintf "%s leg %d: static actions" m.C.Model.name leg)
            (base.C.Sched.static_actions - 1)
            o.C.Sched.static_actions;
          check_int
            (Printf.sprintf "%s leg %d: last patched" m.C.Model.name leg)
            !last o.C.Sched.last_patched)
        base.C.Sched.leg_slot)
    (List.filter
       (fun m -> C.Model.validate m = [])
       (corpus_models ()))

(* The classify-once shortcut applies only when the goldens agree: a
   warm artifact whose interpreter golden differs from the kernel one
   must still classify the interpreter side of every batched variant
   against the interpreter golden — exactly as the per-fault kernel
   path does.  Stuck faults never retire early: every variant either
   finishes and is classified, or stops at its detection point and
   reruns on the interpreter.  The doctored cell is a register's first
   step, so it is the first difference a corrupted outcome records. *)
let test_classify_once_needs_equal_goldens () =
  let m = fig1 () in
  let a = F.Campaign.prepare m in
  let golden_i =
    let gi = a.F.Artifact.golden_i in
    match gi.C.Observation.regs with
    | (n, trace) :: rest ->
      let trace = Array.copy trace in
      trace.(0) <- (if trace.(0) = 1 then 2 else 1);
      { gi with regs = (n, trace) :: rest }
    | [] -> Alcotest.fail "fig1 has no registers"
  in
  let a = { a with F.Artifact.golden_i } in
  let faults =
    List.filter
      (function F.Fault.Stuck_sink _ -> true | _ -> false)
      (F.Fault.enumerate m)
  in
  let run (a : F.Artifact.t) =
    let batched, stats =
      F.Campaign.run_with_stats ~jobs:1 ~faults ~engine:`Auto ~golden:a m
    in
    let kernel = F.Campaign.run ~faults ~engine:`Kernel ~golden:a m in
    check_bool "stuck faults ran batched" true
      (stats.F.Campaign.batched = List.length faults);
    check_bool "the doctored golden changes interpreter outcomes" true
      (List.exists
         (fun (e : F.Campaign.entry) ->
           e.F.Campaign.kernel_outcome <> e.F.Campaign.interp_outcome)
         batched.F.Campaign.entries);
    check_bool "batched = kernel path entry for entry, cycles included" true
      (batched.F.Campaign.entries = kernel.F.Campaign.entries);
    batched.F.Campaign.entries
  in
  let warm = run a in
  (* the doctored artifact changes only the interpreter golden: on the
     kernel path it builds the same checkpoints as a cold campaign and
     gives every fault the same kernel outcome and cycle count *)
  let cold, cold_st =
    F.Campaign.run_with_stats ~jobs:1 ~faults ~engine:`Kernel m
  in
  let _, warm_st =
    F.Campaign.run_with_stats ~jobs:1 ~faults ~engine:`Kernel ~golden:a m
  in
  check_int "warm builds the cold checkpoints" cold_st.F.Campaign.checkpoints
    warm_st.F.Campaign.checkpoints;
  let kernel_side (e : F.Campaign.entry) =
    ( e.F.Campaign.fault,
      e.F.Campaign.kernel_outcome,
      e.F.Campaign.kernel_cycles )
  in
  check_bool "warm = cold on the kernel side" true
    (List.map kernel_side warm = List.map kernel_side cold.F.Campaign.entries)

(* Checkpoints are built only where a run reads one: a batched variant
   joins the golden row in memory, so an all-batchable campaign builds
   none, and the kernel path builds one per distinct restore
   boundary. *)
let test_checkpoints_only_where_read () =
  let m = Chain_model.chain 24 in
  let auto, st = F.Campaign.run_with_stats ~jobs:1 m in
  check_int "every fault batched" auto.F.Campaign.total st.F.Campaign.batched;
  check_int "no checkpoint for an all-batchable campaign" 0
    st.F.Campaign.checkpoints;
  let kernel, stk = F.Campaign.run_with_stats ~jobs:1 ~engine:`Kernel m in
  let boundaries =
    List.sort_uniq Int.compare
      (List.filter
         (fun b -> b >= 1)
         (List.map (F.Campaign.boundary_of_fault m) (F.Fault.enumerate m)))
  in
  check_bool "the chain restores from several boundaries" true
    (List.length boundaries > 1);
  check_int "one checkpoint per kernel-path boundary"
    (List.length boundaries) stk.F.Campaign.checkpoints;
  check_bool "same entries on both paths" true
    (auto.F.Campaign.entries = kernel.F.Campaign.entries)

(* -- journal ---------------------------------------------------------------- *)

let with_temp_journal f =
  let path = Filename.temp_file "csrtl_journal" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let run_journaled ?faults ?limit ~journal ~resume m =
  match F.Campaign.run_journaled ?faults ?limit ~journal ~resume m with
  | Ok v -> v
  | Error e -> Alcotest.failf "run_journaled: %s" e

let test_journal_clean_run_matches_plain () =
  let m = fig1 () in
  let plain = F.Campaign.run m in
  with_temp_journal (fun path ->
      let r, info = run_journaled ~journal:path ~resume:false m in
      Alcotest.(check string) "report bytes" (report_string plain)
        (report_string r);
      check_int "nothing reused" 0 info.F.Campaign.reused;
      check_int "all faults ran" r.F.Campaign.total info.F.Campaign.rerun;
      (* the journal round-trips every outcome payload losslessly *)
      match Csrtl_fault.Journal.read path with
      | Ok (h, entries, torn) ->
        check_int "all entries persisted" r.F.Campaign.total
          (List.length entries);
        check_int "no torn lines" 0 torn;
        Alcotest.(check string) "header names the model" "fig1"
          h.Csrtl_fault.Journal.model
      | Error e -> Alcotest.failf "journal unreadable after a run: %s" e)

let test_journal_resume_after_truncation () =
  (* simulate a crash: keep the header, a prefix of entries, and a torn
     half-line; the resumed report must be byte-identical *)
  let m = fig1 () in
  let plain = F.Campaign.run m in
  with_temp_journal (fun path ->
      ignore (run_journaled ~journal:path ~resume:false m);
      let lines =
        let ic = open_in path in
        let rec go acc =
          match input_line ic with
          | l -> go (l :: acc)
          | exception End_of_file -> close_in ic; List.rev acc
        in
        go []
      in
      let keep = 1 + ((List.length lines - 1) / 2) in
      let oc = open_out path in
      List.iteri
        (fun i l ->
          if i < keep then (output_string oc l; output_char oc '\n')
          else if i = keep then
            output_string oc (String.sub l 0 (String.length l / 2)))
        lines;
      close_out oc;
      let r, info = run_journaled ~journal:path ~resume:true m in
      Alcotest.(check string) "byte-identical report" (report_string plain)
        (report_string r);
      Alcotest.(check string) "byte-identical table" (entries_string plain)
        (entries_string r);
      check_int "prefix reused" (keep - 1) info.F.Campaign.reused;
      check_int "torn line detected" 1 info.F.Campaign.torn;
      check_int "remainder re-ran"
        (r.F.Campaign.total - (keep - 1))
        info.F.Campaign.rerun;
      (* a second resume reuses everything *)
      let r2, info2 = run_journaled ~journal:path ~resume:true m in
      Alcotest.(check string) "still identical" (report_string plain)
        (report_string r2);
      check_int "nothing re-ran" 0 info2.F.Campaign.rerun)

let test_journal_rejects_foreign_campaign () =
  let m = fig1 () in
  with_temp_journal (fun path ->
      ignore (run_journaled ~journal:path ~resume:false m);
      (* different fault list (another limit) → different campaign *)
      (match F.Campaign.run_journaled ~limit:3 ~journal:path ~resume:true m with
       | Ok _ -> Alcotest.fail "foreign fault list accepted"
       | Error _ -> ());
      (* different model → different campaign *)
      let other = V.Consist.random_model 5 in
      (match F.Campaign.run_journaled ~journal:path ~resume:true other with
       | Ok _ -> Alcotest.fail "foreign model accepted"
       | Error _ -> ());
      (* garbage header → clear error, not a crash *)
      let oc = open_out path in
      output_string oc "not json at all\n";
      close_out oc;
      match F.Campaign.run_journaled ~journal:path ~resume:true m with
      | Ok _ -> Alcotest.fail "garbage journal accepted"
      | Error msg ->
        check_bool "error mentions the journal" true
          (String.length msg > 0))

(* writer-level regressions for the append hardening: O_APPEND +
   newline repair on reopen, and line-granular interleaving when pool
   domains share one writer *)

let mk_header total =
  { Csrtl_fault.Journal.model = "regress"; digest = "d0"; config = "c0";
    total; faults_digest = "f0" }

let mk_entry i =
  { Csrtl_fault.Journal.index = i;
    fault_label = Printf.sprintf "fault-%d" i;
    kernel = Csrtl_fault.Outcome.Masked;
    interp = Csrtl_fault.Outcome.Detected (1, C.Phase.Ra, "B1");
    cycles = 6 * (i + 1); law_ok = i mod 2 = 0 }

let test_journal_torn_tail_then_append () =
  let module J = Csrtl_fault.Journal in
  with_temp_journal (fun path ->
      let h = mk_header 10 in
      let w = J.start path h in
      J.append w (List.init 5 mk_entry);
      J.sync w;
      J.close w;
      (* crash mid-write: the last line loses its tail and newline *)
      let len = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (len - 17);
      Unix.close fd;
      (* a resumed campaign appends through a fresh writer *)
      let w = J.reopen path h in
      for i = 5 to 9 do J.append w [ mk_entry i ] done;
      J.sync w;
      J.close w;
      match J.read path with
      | Error e -> Alcotest.failf "journal unreadable after repair: %s" e
      | Ok (_, entries, torn) ->
        check_int "exactly the torn line discarded" 1 torn;
        let idxs =
          List.sort compare
            (List.map (fun (e : J.entry) -> e.J.index) entries)
        in
        (* entry 4 was torn; nothing glued to its fragment, nothing
           duplicated, every append after the crash landed *)
        Alcotest.(check (list int)) "surviving indices"
          [ 0; 1; 2; 3; 5; 6; 7; 8; 9 ] idxs)

let test_journal_concurrent_appends () =
  let module J = Csrtl_fault.Journal in
  with_temp_journal (fun path ->
      let n_threads = 4 and per = 25 in
      let w = J.start path (mk_header (n_threads * per)) in
      let ts =
        List.init n_threads (fun t ->
            Thread.create
              (fun () ->
                for k = 0 to per - 1 do
                  J.append w [ mk_entry ((t * per) + k) ]
                done)
              ())
      in
      List.iter Thread.join ts;
      J.sync w;
      J.close w;
      match J.read path with
      | Error e -> Alcotest.failf "journal unreadable: %s" e
      | Ok (_, entries, torn) ->
        check_int "no torn lines under concurrency" 0 torn;
        check_int "every append landed exactly once" (n_threads * per)
          (List.length entries))

let test_journal_outcome_round_trip () =
  (* Hung and Crashed payloads (the stringy ones) survive the journal:
     resume must rebuild the exact entry lines *)
  let m = fig1 () in
  let faults =
    [ F.Fault.Oscillator
        { sink = List.hd m.C.Model.buses; step = 1; phase = C.Phase.Ra };
      F.Fault.Extra_driver
        { sink = "NO_SUCH_BUS"; step = 1; phase = C.Phase.Ra; value = 1 };
      List.hd (F.Fault.enumerate m) ]
  in
  let plain = F.Campaign.run ~faults m in
  with_temp_journal (fun path ->
      ignore (run_journaled ~faults ~journal:path ~resume:false m);
      let r, info = run_journaled ~faults ~journal:path ~resume:true m in
      check_int "all reused" 3 info.F.Campaign.reused;
      Alcotest.(check string) "entries rebuilt byte-identically"
        (entries_string plain) (entries_string r))

(* -- journal line decoder ------------------------------------------------------ *)

(* Strings that stress the escaper: quotes, backslashes, newline, tab,
   carriage return, the other control bytes, DEL and bytes >= 0x80. *)
let nasty_string =
  let open QCheck.Gen in
  let special =
    oneofl
      [ '"'; '\\'; '\n'; '\t'; '\r'; '\000'; '\001'; '\031'; '\127'; '\128';
        '\255'; '/'; 'u' ]
  in
  string_size ~gen:(frequency [ (3, printable); (2, special); (1, char) ])
    (int_range 0 24)

let gen_outcome =
  let open QCheck.Gen in
  let open Csrtl_fault.Outcome in
  let int = oneof [ int_range (-3) 1000; int ] in
  oneof
    [ return Masked;
      map3 (fun s p n -> Detected (s, p, n)) int (oneofl C.Phase.all)
        nasty_string;
      map2 (fun count first -> Corrupted { count; first })
        (oneof [ int_range 1 1000; int_range 1 max_int ]) nasty_string;
      map (fun w -> Hung w) nasty_string;
      map (fun w -> Crashed w) nasty_string ]

let gen_entry =
  let open QCheck.Gen in
  let int = oneof [ int_range 0 1000; int ] in
  map3
    (fun (index, fault_label) (kernel, interp) (cycles, law_ok) ->
      { Csrtl_fault.Journal.index; fault_label; kernel; interp; cycles;
        law_ok })
    (pair int nasty_string) (pair gen_outcome gen_outcome) (pair int bool)

let line_decoder_round_trip =
  QCheck.Test.make ~name:"entry_of_line (entry_line e) = e" ~count:500
    (QCheck.make QCheck.Gen.(pair gen_entry (string_size (int_range 0 40))))
    (fun (e, digest) ->
      let module J = Csrtl_fault.Journal in
      J.entry_of_line ~digest (J.entry_line ~digest e) = Some e)

(* The string escaper as first written, one character at a time: the
   run-based one must write exactly these bytes. *)
let escape_per_char s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* [s] escaped by the run-based escaper equals the reference, and both
   readers invert it: [Json.parse] (non-canonical, as frames are read)
   and the canonical reader behind [entry_of_line]. *)
let escape_round_trips s =
  let module J = Csrtl_fault.Journal in
  let lit = J.Json.to_string (J.Json.Str s) in
  let e =
    { (mk_entry 0) with
      J.fault_label = s; kernel = Csrtl_fault.Outcome.Hung s }
  in
  lit = escape_per_char s
  && J.Json.parse lit = J.Json.Str s
  && J.entry_of_line ~digest:"d" (J.entry_line ~digest:"d" e) = Some e

let escaper_identity =
  QCheck.Test.make
    ~name:"run escaper = per-character reference, inverted in both modes"
    ~count:1000
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(
         oneof
           [ nasty_string;
             string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 300)
           ]))
    escape_round_trips

let test_escaper_every_byte () =
  for code = 0 to 255 do
    let c = String.make 1 (Char.chr code) in
    List.iter
      (fun s ->
        if not (escape_round_trips s) then
          Alcotest.failf "byte %d in %S" code s)
      [ c; "ab" ^ c; c ^ "yz"; "a" ^ c ^ c ^ "z" ]
  done;
  check_bool "all 256 bytes in one string" true
    (escape_round_trips (String.init 512 (fun i -> Char.chr (i mod 256))))

(* [entry_line] writes its body straight into a buffer: the bytes must
   be those of the JSON tree over the same fields, with the hash over
   the digest and the tree's body. *)
let entry_line_reference =
  QCheck.Test.make ~name:"entry_line = the JSON tree's bytes" ~count:500
    (QCheck.make QCheck.Gen.(pair gen_entry (string_size (int_range 0 40))))
    (fun (e, digest) ->
      let module J = Csrtl_fault.Journal in
      let fields =
        J.Json.
          [ ("i", Int e.J.index); ("fault", Str e.J.fault_label);
            ("kernel", J.json_of_outcome e.J.kernel);
            ("interp", J.json_of_outcome e.J.interp);
            ("cycles", Int e.J.cycles); ("law_ok", Bool e.J.law_ok) ]
      in
      let h =
        Digest.to_hex
          (Digest.string (digest ^ J.Json.to_string (J.Json.Obj fields)))
      in
      J.entry_line ~digest e
      = J.Json.to_string (J.Json.Obj (fields @ [ ("h", J.Json.Str h) ])))

(* [body] with the "h" field the writer would append, hashed over
   exactly these bytes: only its shape can make it torn. *)
let forge ~digest body =
  let h = Digest.to_hex (Digest.string (digest ^ body)) in
  String.sub body 0 (String.length body - 1) ^ ",\"h\":\"" ^ h ^ "\"}"

let test_line_decoder_torn () =
  let module J = Csrtl_fault.Journal in
  let digest = "475c87b38f653810729803b3f856fa95" in
  let e =
    { (mk_entry 3) with
      J.fault_label = "stuck-at 7 on \"B\\1\"";
      kernel = Csrtl_fault.Outcome.Corrupted { count = 2; first = "R1\t/" } }
  in
  let line = J.entry_line ~digest e in
  let torn what l =
    if J.entry_of_line ~digest l <> None then
      Alcotest.failf "%s decoded: %s" what l
  in
  check_bool "the writer's line decodes" true
    (J.entry_of_line ~digest line = Some e);
  let n = String.length line in
  for k = 0 to n do
    if k < n then torn "strict prefix" (String.sub line 0 k);
    torn "space inserted" (String.sub line 0 k ^ " " ^ String.sub line k (n - k))
  done;
  torn "line hashed under another digest"
    (J.entry_line ~digest:"another digest" e);
  (* well-formed JSON with a valid hash over its own bytes, but not
     what the writer emits *)
  List.iter
    (fun (what, body) -> torn what (forge ~digest body))
    [ ( "fields reordered",
        "{\"fault\":\"f\",\"i\":3,\"kernel\":{\"o\":\"masked\"},\"interp\":\
         {\"o\":\"masked\"},\"cycles\":6,\"law_ok\":true}" );
      ( "whitespace after a colon",
        "{\"i\": 3,\"fault\":\"f\",\"kernel\":{\"o\":\"masked\"},\"interp\":\
         {\"o\":\"masked\"},\"cycles\":6,\"law_ok\":true}" );
      ( "escaped slash",
        "{\"i\":3,\"fault\":\"a\\/b\",\"kernel\":{\"o\":\"masked\"},\
         \"interp\":{\"o\":\"masked\"},\"cycles\":6,\"law_ok\":true}" );
      ( "\\u escape of a printable byte",
        "{\"i\":3,\"fault\":\"\\u0041\",\"kernel\":{\"o\":\"masked\"},\
         \"interp\":{\"o\":\"masked\"},\"cycles\":6,\"law_ok\":true}" );
      ( "upper-case \\u escape",
        "{\"i\":3,\"fault\":\"\\u001F\",\"kernel\":{\"o\":\"masked\"},\
         \"interp\":{\"o\":\"masked\"},\"cycles\":6,\"law_ok\":true}" );
      ( "raw control byte",
        "{\"i\":3,\"fault\":\"\001\",\"kernel\":{\"o\":\"masked\"},\
         \"interp\":{\"o\":\"masked\"},\"cycles\":6,\"law_ok\":true}" );
      ( "leading zero",
        "{\"i\":03,\"fault\":\"f\",\"kernel\":{\"o\":\"masked\"},\
         \"interp\":{\"o\":\"masked\"},\"cycles\":6,\"law_ok\":true}" );
      ( "negative zero",
        "{\"i\":3,\"fault\":\"f\",\"kernel\":{\"o\":\"masked\"},\
         \"interp\":{\"o\":\"masked\"},\"cycles\":-0,\"law_ok\":true}" );
      ( "upper-case phase",
        "{\"i\":3,\"fault\":\"f\",\"kernel\":{\"o\":\"detected\",\"step\":1,\
         \"phase\":\"rA\",\"sink\":\"B\"},\"interp\":{\"o\":\"masked\"},\
         \"cycles\":6,\"law_ok\":true}" );
      ( "corrupted with no differences",
        "{\"i\":3,\"fault\":\"f\",\"kernel\":{\"o\":\"corrupted\",\"n\":0,\
         \"first\":\"x\"},\"interp\":{\"o\":\"masked\"},\"cycles\":6,\
         \"law_ok\":true}" );
      ( "wrong key",
        "{\"i\":3,\"fault\":\"f\",\"kernel\":{\"o\":\"masked\"},\"interp\":\
         {\"o\":\"masked\"},\"cycle\":6,\"law_ok\":true}" );
      ( "extra field",
        "{\"i\":3,\"fault\":\"f\",\"kernel\":{\"o\":\"masked\"},\"interp\":\
         {\"o\":\"masked\"},\"cycles\":6,\"law_ok\":true,\"x\":1}" ) ];
  (* the same forge over the canonical body decodes, so the cases above
     are torn for their shape alone *)
  check_bool "a forged canonical line decodes" true
    (J.entry_of_line ~digest
       (forge ~digest
          "{\"i\":3,\"fault\":\"f\",\"kernel\":{\"o\":\"masked\"},\"interp\":\
           {\"o\":\"masked\"},\"cycles\":6,\"law_ok\":true}")
     <> None)

(* corpus/conflict.jsonl was written by `csrtl inject conflict.rtm --jobs
   1 --journal conflict.jsonl` before entry lines were decoded in one
   pass: the decoder must reuse every line of it, and re-encode each
   entry to exactly the line it came from. *)
let test_journal_fixture_reused () =
  let module J = Csrtl_fault.Journal in
  let m = C.Rtm.of_file (Filename.concat "corpus" "conflict.rtm") in
  let fixture = Filename.concat "corpus" "conflict.jsonl" in
  let text = In_channel.with_open_bin fixture In_channel.input_all in
  let lines = List.tl (String.split_on_char '\n' text) in
  let lines = List.filter (fun l -> l <> "") lines in
  (match J.read fixture with
   | Error e -> Alcotest.failf "fixture unreadable: %s" e
   | Ok (h, entries, torn) ->
     check_int "no torn lines" 0 torn;
     Alcotest.(check (list string)) "entries re-encode to their lines" lines
       (List.map (J.entry_line ~digest:h.J.digest) entries));
  with_temp_journal (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      let r, info = run_journaled ~journal:path ~resume:true m in
      check_int "all reused" (List.length lines) info.F.Campaign.reused;
      check_int "none re-run" 0 info.F.Campaign.rerun;
      check_int "none torn" 0 info.F.Campaign.torn;
      Alcotest.(check string) "report = a fresh run"
        (report_string (F.Campaign.run m))
        (report_string r))

(* -- artifacts: the cacheable golden work ---------------------------------- *)

let full_report_string r = report_string r ^ "\n" ^ entries_string r

let plan_of m =
  match C.Batch.plan m with p -> Some p | exception _ -> None

let test_artifact_round_trip () =
  let m = fig1 () in
  let a = F.Campaign.prepare m in
  (match F.Artifact.validate m ~config:C.Simulate.default a with
   | Ok () -> ()
   | Error e -> Alcotest.failf "fresh artifact invalid: %s" e);
  (* the artifact carries no checkpoints: a warm kernel-path campaign
     builds the ones a cold one builds and gives the same entries *)
  let cold, cold_st = F.Campaign.run_with_stats ~jobs:1 ~engine:`Kernel m in
  let warm, warm_st =
    F.Campaign.run_with_stats ~jobs:1 ~engine:`Kernel ~golden:a m
  in
  check_bool "the cold campaign took checkpoints" true
    (cold_st.F.Campaign.checkpoints > 0);
  check_int "warm builds the cold checkpoints" cold_st.F.Campaign.checkpoints
    warm_st.F.Campaign.checkpoints;
  check_bool "warm = cold entries" true
    (warm.F.Campaign.entries = cold.F.Campaign.entries);
  (* the embedded observation format round-trips on its own *)
  (match
     C.Observation.of_string
       (C.Observation.to_string a.F.Artifact.golden_k)
   with
   | Ok o ->
     check_bool "observation round-trips" true (o = a.F.Artifact.golden_k)
   | Error e -> Alcotest.failf "observation parse: %s" e);
  let text = F.Artifact.to_string a in
  match F.Artifact.of_string text with
  | Error e -> Alcotest.failf "artifact parse: %s" e
  | Ok b ->
    check_bool "artifact round-trips" true (a = b);
    Alcotest.(check string) "re-serialization is stable" text
      (F.Artifact.to_string b);
    (match F.Artifact.validate m ~config:C.Simulate.default b with
     | Ok () -> ()
     | Error e -> Alcotest.failf "parsed artifact invalid: %s" e)

let test_artifact_save_load () =
  let m = fig1 () in
  let a = F.Campaign.prepare m in
  let path = Filename.temp_file "csrtl_artifact" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      F.Artifact.save path a;
      check_bool "no tmp file litter" false
        (Sys.file_exists (path ^ ".tmp"));
      match F.Artifact.load path with
      | Ok b -> check_bool "save/load round-trips" true (a = b)
      | Error e -> Alcotest.failf "load: %s" e)

let test_artifact_totality () =
  (* any bytes parse to Ok or Error, never an exception — the on-disk
     cache (and the worker pipe) may hand the parser anything *)
  let m = fig1 () in
  let text = F.Artifact.to_string (F.Campaign.prepare m) in
  let feed s = match F.Artifact.of_string s with Ok _ | Error _ -> () in
  feed "";
  feed "garbage";
  feed "csrtl-artifact 99\nend\n";
  let n = String.length text in
  for i = 0 to 40 do
    feed (String.sub text 0 (i * n / 40))
  done;
  let b = Bytes.of_string text in
  let step = max 1 (n / 53) in
  let i = ref 0 in
  while !i < n do
    let old = Bytes.get b !i in
    Bytes.set b !i (Char.chr ((Char.code old + 1) land 0xff));
    feed (Bytes.to_string b);
    Bytes.set b !i old;
    i := !i + step
  done;
  (* a foreign artifact fails validate; forcing it into a campaign is
     a caller bug and raises *)
  let other = V.Consist.random_model 11 in
  (match
     F.Artifact.validate other ~config:C.Simulate.default
       (F.Campaign.prepare m)
   with
   | Ok () -> Alcotest.fail "foreign artifact validated"
   | Error _ -> ());
  match F.Campaign.run ~golden:(F.Campaign.prepare other) m with
  | _ -> Alcotest.fail "mismatched golden accepted"
  | exception Invalid_argument _ -> ()

(* -- warm paths: plan and golden reuse never change report bytes ----------- *)

let warm_matrix (m : C.Model.t) =
  let plan = plan_of m in
  let golden = F.Campaign.prepare ?plan m in
  let reference = full_report_string (F.Campaign.run m) in
  let check name r =
    if full_report_string r <> reference then
      Alcotest.failf "%s report differs from the cold path" name
  in
  check "warm-plan" (F.Campaign.run ?plan m);
  check "warm-golden" (F.Campaign.run ?plan ~golden m);
  check "golden without plan" (F.Campaign.run ~golden m);
  List.iter
    (fun engine ->
      List.iter
        (fun (jobs, batch) ->
          check
            (Printf.sprintf "parallel warm jobs=%d batch=%d" jobs batch)
            (Pools.with_jobs jobs (fun pool ->
                 F.Campaign.run ?pool ~jobs ~engine ~batch ?plan ~golden m)))
        [ (1, 1); (2, 8); (2, 64) ])
    [ `Auto; `Kernel; `Compiled ]

let test_warm_fig1 () = warm_matrix (fig1 ())

let test_warm_custom_faults () =
  (* a caller-supplied fault list may restore from boundaries the
     artifact's enumerate-derived superset never recorded: the warm
     campaign computes the missing ones, bytes unchanged *)
  let m = fig1 () in
  let golden = F.Campaign.prepare m in
  let faults =
    [ F.Fault.Oscillator
        { sink = List.hd m.C.Model.buses; step = 1; phase = C.Phase.Ra };
      F.Fault.Extra_driver
        { sink = "NO_SUCH_BUS"; step = 1; phase = C.Phase.Ra; value = 1 };
      List.hd (F.Fault.enumerate m) ]
  in
  let cold = F.Campaign.run ~faults m in
  let warm = F.Campaign.run ~faults ~golden m in
  Alcotest.(check string) "custom fault list, warm = cold"
    (full_report_string cold) (full_report_string warm);
  let cold3 = F.Campaign.run ~limit:3 m in
  let warm3 = F.Campaign.run ~limit:3 ~golden m in
  Alcotest.(check string) "limited slice, warm = cold"
    (full_report_string cold3) (full_report_string warm3);
  with_temp_journal (fun path ->
      let rj, _ =
        match
          F.Campaign.run_journaled
            ~warm:(fun () -> (None, Some golden))
            ~journal:path ~resume:false m
        with
        | Ok v -> v
        | Error e -> Alcotest.failf "warm journaled run: %s" e
      in
      Alcotest.(check string) "journaled warm = cold"
        (full_report_string (F.Campaign.run m))
        (full_report_string rj))

let warm_property =
  QCheck.Test.make
    ~name:"plan+golden reuse never changes report bytes" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      warm_matrix (V.Consist.random_model ~conflict:(seed mod 3 = 0) seed);
      true)

(* -- kernel/interpreter agreement on random models x faults ---------------- *)

let restore_property =
  QCheck.Test.make
    ~name:"checkpoint restore never changes a classification" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let m = V.Consist.random_model ~conflict:(seed mod 3 = 0) seed in
      let on = F.Campaign.run ~limit:8 ~restore:true m in
      let off = F.Campaign.run ~limit:8 ~restore:false m in
      if entries_string on <> entries_string off then
        QCheck.Test.fail_reportf
          "restore changed the table on model seed %d:@ %s@ vs@ %s" seed
          (entries_string on) (entries_string off);
      true)

let agreement_property =
  QCheck.Test.make ~name:"kernel and interpreter agree on fault outcomes"
    ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let m = V.Consist.random_model seed in
      let r = F.Campaign.run ~limit:8 m in
      if r.F.Campaign.crashed <> 0 then
        QCheck.Test.fail_reportf "a fault crashed on model seed %d" seed;
      if r.F.Campaign.disagreements <> 0 then
        QCheck.Test.fail_reportf
          "kernel/interp disagreement on model seed %d:@ %a" seed
          (Format.pp_print_list F.Campaign.pp_entry)
          (List.filter
             (fun (e : F.Campaign.entry) ->
               not
                 (F.Campaign.outcomes_agree e.F.Campaign.kernel_outcome
                    e.F.Campaign.interp_outcome))
             r.F.Campaign.entries);
      true)

let () =
  Alcotest.run "fault"
    [ ( "campaign",
        [ Alcotest.test_case "fig1 classifies everything" `Quick
            test_fig1_campaign_classifies_everything;
          Alcotest.test_case "transient localization" `Quick
            test_transient_localization;
          Alcotest.test_case "dropped legs never hang" `Quick
            test_dropped_legs_never_hang ] );
      ( "policies",
        [ Alcotest.test_case "halt stops at first conflict" `Quick
            test_halt_policy_stops_at_first_conflict;
          Alcotest.test_case "degrade keeps last good state" `Quick
            test_degrade_policy_keeps_last_good_state;
          Alcotest.test_case "watchdog quiet on clean run" `Quick
            test_watchdog_quiet_on_clean_run;
          Alcotest.test_case "unknown saboteur sink rejected" `Quick
            test_unknown_saboteur_sink_rejected ] );
      ( "outcomes",
        [ Alcotest.test_case "hung on both engines" `Quick
            test_hung_outcome_on_both_engines;
          Alcotest.test_case "crashed on both engines" `Quick
            test_crashed_outcome_on_both_engines;
          Alcotest.test_case "every constructor covered" `Quick
            test_every_outcome_constructor_covered;
          Alcotest.test_case "report text = Format printers" `Quick
            test_render_report_matches_printers;
          Alcotest.test_case "fault labels, one per constructor" `Quick
            test_fault_labels ] );
      ( "checkpointing",
        [ Alcotest.test_case "restore matches scratch" `Quick
            test_restore_matches_scratch;
          Alcotest.test_case "first_step is sound and in range" `Quick
            test_first_step_sound;
          Alcotest.test_case "checkpoints only where read" `Quick
            test_checkpoints_only_where_read;
          QCheck_alcotest.to_alcotest ~long:false restore_property ] );
      ( "leg facts",
        [ Alcotest.test_case "table = list walk on the corpus" `Quick
            test_leg_facts_corpus;
          QCheck_alcotest.to_alcotest ~long:false leg_facts_property;
          Alcotest.test_case "dropped leg patches its own slot" `Quick
            test_overlay_patches_own_slot;
          Alcotest.test_case "classify once only for equal goldens" `Quick
            test_classify_once_needs_equal_goldens ] );
      ( "journal",
        [ Alcotest.test_case "clean journaled run = plain run" `Quick
            test_journal_clean_run_matches_plain;
          Alcotest.test_case "resume after truncation" `Quick
            test_journal_resume_after_truncation;
          Alcotest.test_case "foreign campaigns rejected" `Quick
            test_journal_rejects_foreign_campaign;
          Alcotest.test_case "torn tail then append" `Quick
            test_journal_torn_tail_then_append;
          Alcotest.test_case "concurrent appends stay line-granular" `Quick
            test_journal_concurrent_appends;
          Alcotest.test_case "outcome payloads round-trip" `Quick
            test_journal_outcome_round_trip;
          Alcotest.test_case "non-canonical lines are torn" `Quick
            test_line_decoder_torn;
          Alcotest.test_case "a journal from the tree-parsing reader is reused"
            `Quick test_journal_fixture_reused;
          QCheck_alcotest.to_alcotest ~long:false line_decoder_round_trip;
          QCheck_alcotest.to_alcotest ~long:false escaper_identity;
          Alcotest.test_case "every byte escapes and reads back" `Quick
            test_escaper_every_byte;
          QCheck_alcotest.to_alcotest ~long:false entry_line_reference ] );
      ( "artifact",
        [ Alcotest.test_case "serialization round-trips" `Quick
            test_artifact_round_trip;
          Alcotest.test_case "save/load is atomic" `Quick
            test_artifact_save_load;
          Alcotest.test_case "parser and validate are total" `Quick
            test_artifact_totality ] );
      ( "warm path",
        [ Alcotest.test_case "fig1 warm = cold at every config" `Quick
            test_warm_fig1;
          Alcotest.test_case "custom faults and journaled warm runs" `Quick
            test_warm_custom_faults;
          QCheck_alcotest.to_alcotest ~long:false warm_property ] );
      ( "agreement",
        [ QCheck_alcotest.to_alcotest ~long:false agreement_property ] ) ]
