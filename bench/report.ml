(* The experiment report: regenerates every figure, table and claim of
   the paper's evaluation (DESIGN.md experiments index F1-F3, T1,
   C1-C10) as printed tables. *)

module C = Csrtl_core
module K = Csrtl_kernel

let section id title =
  Format.printf "@.==== %s: %s ====@.@." id title

(* -- F1: Fig. 1 ---------------------------------------------------------- *)

let fig1 () =
  section "F1" "paper Fig. 1 - the concrete register transfer";
  let m = C.Builder.fig1 () in
  List.iter
    (fun t -> Format.printf "tuple: %a@." C.Transfer.pp t)
    m.C.Model.transfers;
  let legs, _ = C.Model.all_legs m in
  List.iter (fun l -> Format.printf "  %a@." C.Transfer.pp_leg l) legs;
  let r = C.Simulate.run m in
  (match C.Observation.reg_trace r.C.Simulate.obs "R1" with
   | Some arr ->
     Format.printf "R1 per step:";
     Array.iter (fun v -> Format.printf " %s" (C.Word.to_string v)) arr;
     Format.printf "  (write-back lands at step 6)@."
   | None -> ());
  Format.printf "simulation cycles: %d@." r.C.Simulate.cycles

(* -- F2: the delta-cycle law ------------------------------------------------ *)

let fig2 () =
  section "F2" "Fig. 2 timing - 6 delta cycles per control step";
  Format.printf "%8s %10s %10s %8s@." "cs_max" "cycles" "6*cs_max" "law";
  List.iter
    (fun cs_max ->
      let m = Workloads.controller_only cs_max in
      let r = C.Simulate.run m in
      Format.printf "%8d %10d %10d %8s@." cs_max r.C.Simulate.cycles
        (6 * cs_max)
        (if r.C.Simulate.cycles = 6 * cs_max then "holds" else "VIOLATED"))
    [ 10; 100; 1000; 10000 ];
  Format.printf
    "(a write-back in the final step adds exactly one trailing cycle)@.";
  let m = Workloads.chain 4 in
  let r = C.Simulate.run m in
  Format.printf "%8d %10d %10d %8s (chain with final-step write)@."
    m.C.Model.cs_max r.C.Simulate.cycles
    (C.Simulate.expected_cycles m)
    (if r.C.Simulate.cycles = C.Simulate.expected_cycles m then "holds"
     else "VIOLATED")

(* -- F3 + T1: the IKS application ------------------------------------------- *)

let fig3_iks () =
  section "F3/T1" "the IKS chip - microcode to transfers, datapath run";
  Format.printf "paper table entry (store address 7):@.";
  Format.printf "  %a@." Csrtl_iks.Microcode.pp_instr
    Csrtl_iks.Microcode.paper_addr7;
  Format.printf "derived transfer tuples:@.";
  List.iter
    (fun t -> Format.printf "  %a@." C.Transfer.pp t)
    (Csrtl_iks.Translate.tuples_of_instr Csrtl_iks.Microcode.paper_addr7);
  let f = Csrtl_iks.Fixed.of_float in
  Format.printf "@.inverse kinematics on the Fig. 3 datapath:@.";
  Format.printf "%8s %8s %8s %8s %12s %12s %10s@." "l1" "l2" "px" "py"
    "theta1" "theta2" "bit-exact";
  List.iter
    (fun (l1, l2, px, py) ->
      let t =
        Csrtl_iks.Ikprog.build ~l1:(f l1) ~l2:(f l2) ~px:(f px) ~py:(f py)
      in
      let s =
        Csrtl_iks.Ikprog.solve_on_datapath ~l1:(f l1) ~l2:(f l2) ~px:(f px)
          ~py:(f py)
      in
      Format.printf "%8.2f %8.2f %8.2f %8.2f %12s %12s %10b@." l1 l2 px py
        (Csrtl_iks.Fixed.to_string s.Csrtl_iks.Golden.theta1)
        (Csrtl_iks.Fixed.to_string s.Csrtl_iks.Golden.theta2)
        (s.Csrtl_iks.Golden.theta1
           = t.Csrtl_iks.Ikprog.expected.Csrtl_iks.Golden.theta1
         && s.Csrtl_iks.Golden.theta2
            = t.Csrtl_iks.Ikprog.expected.Csrtl_iks.Golden.theta2))
    [ (2.0, 1.5, 2.5, 1.0); (1.0, 1.0, 1.2, 0.8); (3.0, 2.0, -2.5, 3.0) ];
  let t = Csrtl_iks.Ikprog.build ~l1:(f 2.0) ~l2:(f 1.5) ~px:(f 2.5) ~py:(f 1.0) in
  let m =
    Csrtl_iks.Translate.to_model ~inputs:t.Csrtl_iks.Ikprog.inputs
      ~reg_init:t.Csrtl_iks.Ikprog.reg_init t.Csrtl_iks.Ikprog.program
  in
  Format.printf
    "microprogram: %d words -> %d transfers, cs_max %d, %d conflicts@."
    (List.length t.Csrtl_iks.Ikprog.program.Csrtl_iks.Microcode.instrs)
    (List.length m.C.Model.transfers)
    m.C.Model.cs_max
    (List.length (C.Conflict.check m));
  (* forward kinematics closes the loop on the datapath *)
  let s =
    Csrtl_iks.Ikprog.solve_on_datapath ~l1:(f 2.0) ~l2:(f 1.5) ~px:(f 2.5)
      ~py:(f 1.0)
  in
  let rx, ry =
    Csrtl_iks.Ikprog.forward_on_datapath ~l1:(f 2.0) ~l2:(f 1.5)
      ~theta1:s.Csrtl_iks.Golden.theta1 ~theta2:s.Csrtl_iks.Golden.theta2
  in
  Format.printf
    "IK -> FK round trip on the datapath: target (2.5, 1.0) recovered as \
     (%s, %s)@."
    (Csrtl_iks.Fixed.to_string rx)
    (Csrtl_iks.Fixed.to_string ry);
  Format.printf "workspace check (static microcode): (2.5,1.0)=%b (5,0)=%b@."
    (Csrtl_iks.Ikprog.workspace_on_datapath ~l1:(f 2.0) ~l2:(f 1.5)
       ~px:(f 2.5) ~py:(f 1.0))
    (Csrtl_iks.Ikprog.workspace_on_datapath ~l1:(f 2.0) ~l2:(f 1.5)
       ~px:(f 5.0) ~py:(f 0.0))

(* -- C1: tuple <-> TRANS bidirectional mapping -------------------------------- *)

let claim_roundtrip () =
  section "C1" "tuples <-> TRANS instances map bidirectionally";
  let m = C.Builder.fig1 () in
  let legs, selects = C.Model.all_legs m in
  let back =
    C.Transfer.merge ~latency_of:(C.Model.fu_latency m)
      (C.Transfer.compose legs selects)
  in
  Format.printf "fig1: decompose -> %d legs -> recompose -> %s@."
    (List.length legs)
    (String.concat " " (List.map C.Transfer.to_string back));
  (* across the whole IKS microprogram *)
  let f = Csrtl_iks.Fixed.of_float in
  let t = Csrtl_iks.Ikprog.build ~l1:(f 2.0) ~l2:(f 1.5) ~px:(f 2.5) ~py:(f 1.0) in
  let mm =
    Csrtl_iks.Translate.to_model ~inputs:t.Csrtl_iks.Ikprog.inputs
      ~reg_init:t.Csrtl_iks.Ikprog.reg_init t.Csrtl_iks.Ikprog.program
  in
  let legs, selects = C.Model.all_legs mm in
  let back =
    C.Transfer.merge ~latency_of:(C.Model.fu_latency mm)
      (C.Transfer.compose legs selects)
  in
  Format.printf
    "IKS microprogram: %d tuples -> %d legs -> %d tuples (round trip %s)@."
    (List.length mm.C.Model.transfers)
    (List.length legs) (List.length back)
    (if List.sort C.Transfer.compare mm.C.Model.transfers
        = List.sort C.Transfer.compare back
     then "exact"
     else "INEXACT")

(* -- C2: conflict localization -------------------------------------------------- *)

let claim_conflict () =
  section "C2" "resource conflicts surface as ILLEGAL at (step, phase)";
  let m = Csrtl_verify.Consist.random_model ~conflict:true 3 in
  let stat = C.Conflict.check m in
  Format.printf "static analysis predicts:@.";
  List.iter (fun c -> Format.printf "  %a@." C.Conflict.pp c) stat;
  let r = C.Simulate.run m in
  Format.printf "dynamic simulation observes:@.";
  List.iter
    (fun (s, p, n) ->
      Format.printf "  ILLEGAL on %s at step %d, phase %s@." n s
        (C.Phase.to_string p))
    r.C.Simulate.obs.C.Observation.conflicts

(* -- C3: simulation speed vs baselines ---------------------------------------- *)

let claim_speed () =
  section "C3"
    "\"execution is very fast\": clock-free vs handshake vs clocked";
  Format.printf
    "%6s | %22s | %22s | %22s | %22s@." "N"
    "clock-free kernel" "interpreter" "handshake" "clocked event-driven";
  Format.printf
    "%6s | %10s %11s | %10s %11s | %10s %11s | %10s %11s@." ""
    "events" "wall us" "events" "wall us" "events" "wall us" "events"
    "wall us";
  let row label m =
      let n = List.length m.C.Model.transfers in
      ignore label;
      let cf_events = ref 0 in
      let cf =
        Workloads.wall_us (fun () ->
            let r = C.Simulate.run m in
            cf_events := r.C.Simulate.stats.K.Types.events)
      in
      let it = Workloads.wall_us (fun () -> ignore (C.Interp.run m)) in
      let hs_events = ref 0 in
      let hs =
        Workloads.wall_us (fun () ->
            let r = Csrtl_handshake.Hs_model.run m in
            hs_events := r.Csrtl_handshake.Hs_model.stats.K.Types.events)
      in
      let low = Csrtl_clocked.Lower.lower m in
      let cycles = Csrtl_clocked.Lower.cycles_needed low in
      let ck_events = ref 0 in
      let ck =
        Workloads.wall_us (fun () ->
            let r =
              Csrtl_clocked.Kernel_sim.run
                ~inputs:(Csrtl_clocked.Lower.input_function low)
                low.Csrtl_clocked.Lower.net ~cycles
            in
            ck_events := r.Csrtl_clocked.Kernel_sim.stats.K.Types.events)
      in
      Format.printf
        "%6d | %10d %11.1f | %10s %11.1f | %10d %11.1f | %10d %11.1f@." n
        !cf_events cf "-" it !hs_events hs !ck_events ck
  in
  Format.printf "serial chains (1 transfer per 2 steps):@.";
  List.iter (fun n -> row "chain" (Workloads.chain n)) [ 4; 16; 64; 256 ];
  Format.printf "parallel datapaths (32 steps, 1..32 lanes):@.";
  List.iter
    (fun lanes -> row "lanes" (Workloads.parallel_lanes ~lanes ~steps:32))
    [ 1; 4; 16; 32 ];
  Format.printf
    "(events per transfer: clock-free stays constant; the handshake\n\
    \ baseline needs ~6 events per 4-phase transaction and cannot exploit\n\
    \ the parallel schedule; the control-step interpreter -- the paper's\n\
    \ dedicated semantics -- is fastest throughout)@."

(* -- ablations (DESIGN.md section 5) ------------------------------------------ *)

let ablations () =
  section "A" "ablations: what makes the clock-free kernel viable";
  let m = Workloads.chain 128 in
  Format.printf "%34s %12s@." "configuration" "wall us";
  List.iter
    (fun (label, wait_impl, resolution_impl) ->
      let t =
        Workloads.wall_us (fun () ->
            ignore (C.Simulate.run ~wait_impl ~resolution_impl m))
      in
      Format.printf "%34s %12.1f@." label t)
    [ ("keyed waits + incremental res", `Keyed, `Incremental);
      ("keyed waits + fold res", `Keyed, `Fold);
      ("predicate waits + incremental res", `Predicate, `Incremental);
      ("predicate waits + fold res (naive)", `Predicate, `Fold) ];
  Format.printf
    "(the naive configuration is the literal VHDL reading: every TRANS\n\
    \ re-evaluates its wait predicate on each control event and every bus\n\
    \ refolds all drivers; both scale quadratically)@." 

(* -- C4: clocked lowering ------------------------------------------------------- *)

let claim_lowering () =
  section "C4" "control steps map onto several clock schemes";
  Format.printf "%12s %26s %8s %12s %12s %18s@." "model" "netlist" "cycles"
    "one-cycle" "two-phase" "symbolic proof";
  let models =
    [ ("fig1", C.Builder.fig1 ());
      ( "diffeq",
        Csrtl_hls.Flow.with_inputs
          (Csrtl_hls.Flow.compile Csrtl_hls.Examples.diffeq)
            .Csrtl_hls.Flow.binding
            .Csrtl_hls.Synth.model
          [ ("x", 2); ("y", 5); ("u", 3); ("dx", 1); ("a", 100) ] );
      ("chain32", Workloads.chain 32) ]
  in
  List.iter
    (fun (name, m) ->
      let verdict scheme =
        match Csrtl_clocked.Equiv.check ~scheme m with
        | Ok () -> "equivalent"
        | Error ms -> Printf.sprintf "%d mismatches" (List.length ms)
      in
      let low = Csrtl_clocked.Lower.lower m in
      let proof =
        match Csrtl_verify.Lowcheck.check m with
        | Csrtl_verify.Lowcheck.Proved -> "proved (all inputs)"
        | Csrtl_verify.Lowcheck.Mismatch _ -> "MISMATCH"
      in
      Format.printf "%12s %26s %8d %12s %12s %18s@." name
        (Format.asprintf "%a" Csrtl_clocked.Netlist.pp_stats
           low.Csrtl_clocked.Lower.net
         |> fun s -> String.sub s 0 (min 26 (String.length s)))
        (Csrtl_clocked.Lower.cycles_needed low)
        (verdict Csrtl_clocked.Lower.One_cycle_per_step)
        (verdict Csrtl_clocked.Lower.Two_phase)
        proof)
    models;
  Format.printf
    "(numeric columns: one test vector per scheme; symbolic proof: the\n\
    \ lowered netlist's register terms equal the clock-free terms for\n\
    \ every input at once, via Csrtl_verify.Lowcheck)@." 

(* -- C5: HLS results simulate in the subset ------------------------------------ *)

let claim_hls () =
  section "C5" "HLS results translate into the subset (schedule table)";
  Format.printf "%10s %10s %6s %6s %6s | %6s %6s %6s | %10s@." "program"
    "scheduler" "alus" "mults" "buses" "steps" "regs" "units" "verified";
  List.iter
    (fun (p, scheduler, alus, mults, buses) ->
      let resources =
        Csrtl_hls.Sched.default_resources ~alus ~mults ~buses ()
      in
      let flow = Csrtl_hls.Flow.compile ~resources ~scheduler p in
      let verdicts = Csrtl_verify.Equiv.check_flow flow in
      let sched_name =
        match scheduler with `List -> "list" | `Force_directed -> "fds"
      in
      Format.printf "%10s %10s %6d %6d %6d | %6d %6d %6d | %10s@."
        p.Csrtl_hls.Ir.pname sched_name alus mults buses
        (flow.Csrtl_hls.Flow.binding.Csrtl_hls.Synth.model.C.Model.cs_max)
        flow.Csrtl_hls.Flow.binding.Csrtl_hls.Synth.registers_used
        (List.length
           flow.Csrtl_hls.Flow.binding.Csrtl_hls.Synth.model.C.Model.fus)
        (if Csrtl_verify.Equiv.all_proved verdicts then "proved"
         else "NOT PROVED"))
    [ (Csrtl_hls.Examples.diffeq, `List, 1, 1, 2);
      (Csrtl_hls.Examples.diffeq, `List, 2, 2, 4);
      (Csrtl_hls.Examples.diffeq, `List, 3, 3, 6);
      (Csrtl_hls.Examples.diffeq, `Force_directed, 1, 1, 4);
      (Csrtl_hls.Examples.fir 8, `List, 1, 1, 2);
      (Csrtl_hls.Examples.fir 8, `List, 2, 2, 4);
      (Csrtl_hls.Examples.fir 8, `List, 2, 4, 8);
      (Csrtl_hls.Examples.fir 8, `Force_directed, 1, 1, 4);
      (Csrtl_hls.Examples.horner 6, `List, 1, 1, 2);
      (Csrtl_hls.Examples.fft4, `List, 1, 1, 2);
      (Csrtl_hls.Examples.fft4, `List, 4, 1, 8) ];
  Format.printf
    "(fds = force-directed scheduling, time-constrained: unit counts are\n\
    \ outputs; on diffeq it reaches the critical-path latency with\n\
    \ 1 ALU + 1 multiplier, the Paulin & Knight result)@.";
  (* register-allocation ablation: what left-edge lifetime packing saves *)
  let sched =
    Csrtl_hls.Sched.list_schedule
      (Csrtl_hls.Sched.default_resources ())
      (Csrtl_hls.Dfg.of_program Csrtl_hls.Examples.diffeq)
  in
  let le = Csrtl_hls.Synth.synthesize ~reg_alloc:`Left_edge sched in
  let naive = Csrtl_hls.Synth.synthesize ~reg_alloc:`Naive sched in
  Format.printf
    "register allocation on diffeq: left-edge %d registers, naive \
     one-per-value %d@."
    le.Csrtl_hls.Synth.registers_used naive.Csrtl_hls.Synth.registers_used

(* -- transformations on the subset (paper section 2.7 goal) ------------------- *)

let claim_transform () =
  section "T" "transformations on the subset: schedule compaction";
  Format.printf "%12s %10s %10s %12s@." "model" "before" "after"
    "preserved";
  List.iter
    (fun (name, m) ->
      let before, after = C.Reschedule.compaction m in
      let m' = C.Reschedule.compact m in
      let s1 = Csrtl_verify.Symsim.run m in
      let s2 = Csrtl_verify.Symsim.run m' in
      let preserved =
        List.for_all2
          (fun (_, a) (_, b) -> Csrtl_verify.Sym.equal a b)
          s1.Csrtl_verify.Symsim.reg_final s2.Csrtl_verify.Symsim.reg_final
      in
      Format.printf "%12s %10d %10d %12b@." name before after preserved)
    [ ("fig1", C.Builder.fig1 ());
      ( "diffeq",
        (Csrtl_hls.Flow.compile Csrtl_hls.Examples.diffeq)
          .Csrtl_hls.Flow.binding
          .Csrtl_hls.Synth.model );
      ("chain16", Workloads.chain 16) ]

(* -- C6: consistency ------------------------------------------------------------- *)

let claim_consistency () =
  section "C6" "control-step semantics consistent with delta-cycle semantics";
  let count = 200 in
  let failures = Csrtl_verify.Consist.run_batch ~seed:1 ~count () in
  Format.printf
    "%d random models (1 in 4 with injected conflicts): %d disagreements@."
    count (List.length failures);
  List.iter
    (fun (seed, es) ->
      List.iter (Format.printf "  seed %d: %s@." seed) es)
    failures

(* -- C7: verification against the algorithmic level ----------------------------- *)

let claim_verify () =
  section "C7" "RT descriptions verify against algorithmic descriptions";
  List.iter
    (fun p ->
      let flow = Csrtl_hls.Flow.compile p in
      let verdicts = Csrtl_verify.Equiv.check_flow flow in
      Format.printf "%10s:" p.Csrtl_hls.Ir.pname;
      List.iter
        (fun (o, v) ->
          Format.printf " %s=%s" o
            (Format.asprintf "%a" Csrtl_verify.Equiv.pp_verdict v))
        verdicts;
      Format.printf "@.")
    [ Csrtl_hls.Examples.diffeq; Csrtl_hls.Examples.fir 6;
      Csrtl_hls.Examples.horner 4 ];
  Format.printf
    "IKS: datapath microprogram vs fixed-point golden model: bit-exact \
     (see F3)@."

(* -- C8: VHDL round trip ---------------------------------------------------------- *)

let claim_vhdl () =
  section "C8" "models translate to VHDL and back";
  Format.printf "%10s %8s %8s %12s %10s@." "model" "lines" "units"
    "transfers" "behaviour";
  List.iter
    (fun (name, m) ->
      let text = Csrtl_vhdl.Emit.to_string m in
      let lines = List.length (String.split_on_char '\n' text) in
      let units = List.length (Csrtl_vhdl.Parser.design_file text) in
      let back = Csrtl_vhdl.Extract.model_of_string text in
      let o1 = C.Interp.run m and o2 = C.Interp.run back in
      Format.printf "%10s %8d %8d %6d/%-6d %10s@." name lines units
        (List.length m.C.Model.transfers)
        (List.length back.C.Model.transfers)
        (if
           C.Observation.equal
             { o1 with C.Observation.model_name = "x" }
             { o2 with C.Observation.model_name = "x" }
         then "preserved"
         else "CHANGED"))
    [ ("fig1", C.Builder.fig1 ());
      ("chain16", Workloads.chain 16);
      ( "fir4",
        Csrtl_hls.Flow.with_inputs
          (Csrtl_hls.Flow.compile (Csrtl_hls.Examples.fir 4))
            .Csrtl_hls.Flow.binding
            .Csrtl_hls.Synth.model
          (List.init 4 (fun i -> (Printf.sprintf "x%d" i, i + 1))) ) ];
  (* the emitted VHDL also executes as VHDL: the self-checking
     testbench replays its embedded assertions through Elab *)
  let m = C.Builder.fig1 () in
  let tb = Csrtl_vhdl.Emit.self_checking_to_string m (C.Interp.run m) in
  (match Csrtl_vhdl.Elab.elaborate_and_run ~top:"fig1" tb with
   | Ok t ->
     Format.printf
       "fig1 self-checking testbench executed by Elab: %d cycles, %d \
        assertion failures@."
       (K.Scheduler.delta_count t.Csrtl_vhdl.Elab.kernel)
       (List.length !(t.Csrtl_vhdl.Elab.failures))
   | Error msg -> Format.printf "Elab failed: %s@." msg)

(* -- C9: fault-injection campaigns ----------------------------------------------- *)

let fault_mask_src =
  "model fault_mask\ncsmax 5\nreg R1 init 6\nreg RC\nbus B1 B2\n\
   unit CP ops pass latency 1\n\
   transfer R1 B1 - - 1 CP:pass 2 B2 RC\n\
   transfer R1 B1 - - 3 CP:pass 4 B2 RC\n"

let fault_chain_src =
  "model fault_chain\ncsmax 7\ninput X const 4\nreg Z init 0\nreg R1\n\
   reg R2\noutput OUT\nbus BA BB\nunit ALU ops add,pass latency 1\n\
   transfer X! BA Z BB 1 ALU:add 2 BA R1\n\
   transfer R1 BA - - 3 ALU:pass 4 BA R2\n\
   transfer R2 BA - - 5 ALU:pass 6 BB OUT!\n"

let claim_fault () =
  section "C9" "single-fault campaigns: coverage on both execution paths";
  let iks =
    let t =
      Csrtl_iks.Ikprog.build ~l1:(Csrtl_iks.Fixed.of_float 2.0)
        ~l2:(Csrtl_iks.Fixed.of_float 1.5)
        ~px:(Csrtl_iks.Fixed.of_float 2.5)
        ~py:(Csrtl_iks.Fixed.of_float 1.0)
    in
    Csrtl_iks.Translate.to_model ~inputs:t.Csrtl_iks.Ikprog.inputs
      ~reg_init:t.Csrtl_iks.Ikprog.reg_init t.Csrtl_iks.Ikprog.program
  in
  Format.printf "%12s %7s %7s %9s %10s %5s %8s %6s %10s@." "model" "faults"
    "masked" "detected" "corrupted" "hung" "coverage" "agree" "law";
  List.iter
    (fun (name, m, limit) ->
      let r = Csrtl_fault.Campaign.run ?limit m in
      Format.printf "%12s %7d %7d %9d %10d %5d %8s %3d/%-3d %10s@." name
        r.Csrtl_fault.Campaign.total r.Csrtl_fault.Campaign.masked
        r.Csrtl_fault.Campaign.detected r.Csrtl_fault.Campaign.corrupted
        r.Csrtl_fault.Campaign.hung
        (match r.Csrtl_fault.Campaign.coverage with
         | None -> "n/a"
         | Some c -> Printf.sprintf "%.1f%%" (100. *. c))
        (r.Csrtl_fault.Campaign.total
         - r.Csrtl_fault.Campaign.disagreements)
        r.Csrtl_fault.Campaign.total
        (if r.Csrtl_fault.Campaign.law_violations = 0 then "held"
         else
           Printf.sprintf "%d broken" r.Csrtl_fault.Campaign.law_violations))
    [ ("fig1", C.Builder.fig1 (), None);
      ("fault_mask", C.Rtm.of_string fault_mask_src, None);
      ("fault_chain", C.Rtm.of_string fault_chain_src, None);
      ("chain8", Workloads.chain 8, Some 60);
      ("iks", iks, Some 60) ]

(* -- C10: phase-compiled fast path + multicore campaigns ---------------------- *)

let claim_multicore ?(smoke = false) () =
  section "C10" "phase-compiled fast path and multicore campaign scaling";
  let module F = Csrtl_fault in
  let module P = Csrtl_par.Par in
  Format.printf "engine throughput (one model, three engines, wall us):@.";
  Format.printf "%12s | %10s %10s %10s | %12s %12s@." "model" "compiled"
    "kernel" "interp" "kernel/comp" "interp/comp";
  let row m =
    let plan = C.Batch.plan m in
    let tc =
      Workloads.wall_us (fun () -> ignore (C.Batch.golden_with plan []))
    in
    let tk = Workloads.wall_us (fun () -> ignore (C.Simulate.run m)) in
    let ti = Workloads.wall_us (fun () -> ignore (C.Interp.run m)) in
    Format.printf "%12s | %10.1f %10.1f %10.1f | %11.1fx %11.1fx@."
      m.C.Model.name tc tk ti (tk /. tc) (ti /. tc)
  in
  List.iter
    (fun n -> row (Workloads.chain n))
    (if smoke then [ 4; 16 ] else [ 16; 64; 256 ]);
  List.iter
    (fun lanes ->
      row (Workloads.parallel_lanes ~lanes ~steps:(if smoke then 8 else 32)))
    (if smoke then [ 2 ] else [ 4; 16; 32 ]);
  Format.printf
    "(compiled is the K = 0 batch arena: one plan and one arena reused\n\
    \ across runs; the kernel pays the event queue and waiter tables on\n\
    \ every run, the interpreter its per-phase association lists)@.";
  let m = Workloads.chain (if smoke then 4 else 12) in
  let limit = if smoke then Some 20 else None in
  Format.printf
    "@.campaign scaling on %s (%d domains recommended on this host;\n\
    \ the report is byte-identical at every job count):@."
    m.C.Model.name
    (Domain.recommended_domain_count ());
  Format.printf "%6s %12s %10s %12s  %s@." "jobs" "wall us" "speedup"
    "report" "per-domain utilization";
  let baseline = ref None in
  List.iter
    (fun jobs ->
      P.with_pool ~jobs (fun pool ->
          (* one timed run, not a median: Par.last_stats describes the
             last map, so the utilization must divide by that same run *)
          let rep, t =
            Workloads.time_it (fun () -> F.Campaign.run_parallel ~pool ?limit m)
          in
          let txt = Format.asprintf "%a" F.Campaign.pp_report rep in
          let verdict, speedup =
            match !baseline with
            | None ->
              baseline := Some (t, txt);
              ("baseline", "1.00x")
            | Some (t1, b) ->
              ( (if String.equal b txt then "identical" else "DIFFERS"),
                Printf.sprintf "%.2fx" (t1 /. t) )
          in
          let util =
            P.last_stats pool |> Array.to_list
            |> List.map (fun s ->
                   Printf.sprintf "%3.0f%%" (100. *. s.P.w_busy *. 1e6 /. t))
            |> String.concat " "
          in
          Format.printf "%6d %12.1f %10s %12s  %s@." jobs t speedup verdict
            util))
    [ 1; 2; 4; 8 ];
  Format.printf
    "(speedup is measured, not asserted: on a single-core container the\n\
    \ extra domains only add hand-off cost; utilization comes from\n\
    \ Par.last_stats and never feeds into the deterministic report)@."

(* -- C11: checkpoint-restore campaigns ----------------------------------------- *)

let claim_checkpoint () =
  section "C11" "checkpoint restore: campaigns resume mid-schedule, not from 0";
  let module F = Csrtl_fault in
  Format.printf
    "%12s %7s | %12s %12s %8s %10s@." "model" "faults" "scratch us"
    "restore us" "speedup" "report";
  List.iter
    (fun (name, m, limit) ->
      let scratch, t0 =
        Workloads.time_it (fun () -> F.Campaign.run ?limit ~restore:false m)
      in
      let restored, t1 =
        Workloads.time_it (fun () -> F.Campaign.run ?limit ~restore:true m)
      in
      let same =
        String.equal
          (Format.asprintf "%a" F.Campaign.pp_report scratch)
          (Format.asprintf "%a" F.Campaign.pp_report restored)
      in
      Format.printf "%12s %7d | %12.1f %12.1f %7.2fx %10s@." name
        scratch.F.Campaign.total t0 t1 (t0 /. t1)
        (if same then "identical" else "DIFFERS"))
    [ ("fig1", C.Builder.fig1 (), None);
      ("fault_chain", C.Rtm.of_string fault_chain_src, None);
      ("chain16", Workloads.chain 16, Some 80);
      ("lanes8x24", Workloads.parallel_lanes ~lanes:8 ~steps:24, Some 80) ];
  Format.printf
    "(a fault whose first divergent step is s restores the golden-run\n\
    \ checkpoint at boundary s-1 instead of replaying steps 1..s-1, so\n\
    \ late faults in long schedules gain the most; the classification\n\
    \ report is byte-identical either way, which is also qcheck-locked\n\
    \ in test/test_fault.ml)@."

(* -- C12: batched lockstep fault campaigns ------------------------------- *)

(* One measured campaign configuration.  [bp_batch] is 0 on the kernel
   path (the PR 3 checkpoint-restore reference); [bp_identical] says the
   full report (summary + every entry) printed the same bytes as the
   sequential kernel reference — the determinism claim, re-checked on
   the benchmark matrix itself. *)
type c12_point = {
  bp_engine : string;  (* "kernel" or "batched" *)
  bp_jobs : int;
  bp_batch : int;
  bp_wall_us : float;
  bp_fps : float;  (* faults per second *)
  bp_batched : int;  (* faults dispatched to the lockstep executor *)
  bp_retired : int;  (* batched variants retired before cs_max *)
  bp_identical : bool;
  bp_eff : float;
      (* scaling efficiency against the same engine/batch at jobs=1,
         normalized by the parallelism the host can actually deliver:
         fps(jobs=N) / (min(N, host cores) * fps(jobs=1)).  1.0 =
         perfect scaling; the pool clamps its domains to the cores, so
         a request for more jobs than cores should still sit near 1.0
         instead of inverting. *)
}

let host_domains () = Domain.recommended_domain_count ()

type c12_model = {
  bm_name : string;
  bm_faults : int;
  bm_points : c12_point list;
}

(* The campaign corpus: every .rtm under test/corpus when run from the
   repository root (the Makefile's working directory), else the two
   embedded campaign models. *)
let corpus_models () =
  let dir = Filename.concat "test" "corpus" in
  let from_disk =
    if Sys.file_exists dir && Sys.is_directory dir then
      Sys.readdir dir |> Array.to_list |> List.sort compare
      |> List.filter (fun f -> Filename.check_suffix f ".rtm")
      |> List.filter_map (fun f ->
             try Some (C.Rtm.of_file (Filename.concat dir f))
             with _ -> None)
    else []
  in
  match from_disk with
  | [] -> [ C.Rtm.of_string fault_mask_src; C.Rtm.of_string fault_chain_src ]
  | ms -> ms

(* "Widest" = the corpus model with the largest enumerated fault list:
   the one whose campaign exercises the most sinks and legs. *)
let widest_corpus_model () =
  let module F = Csrtl_fault in
  corpus_models ()
  |> List.map (fun m -> (List.length (F.Fault.enumerate m), m))
  |> List.sort (fun ((a : int), _) (b, _) -> compare b a)
  |> List.hd |> snd

let c12_measure ?limit ~smoke (m : C.Model.t) =
  let module F = Csrtl_fault in
  let full (r : F.Campaign.report) =
    Format.asprintf "%a@.%a" F.Campaign.pp_report r
      (Format.pp_print_list F.Campaign.pp_entry)
      r.F.Campaign.entries
  in
  let reference = full (F.Campaign.run ?limit ~engine:`Kernel m) in
  let jobs_list = if smoke then [ 1; 2 ] else [ 1; 2; 4 ] in
  let faults = ref 0 in
  let point ~engine ~jobs ~batch =
    let rep = ref None and stats = ref None in
    let t =
      Workloads.wall_us (fun () ->
          let r, s = F.Campaign.run_with_stats ?limit ~jobs ~engine ~batch m in
          rep := Some r;
          stats := Some s)
    in
    let r = Option.get !rep and s = Option.get !stats in
    faults := r.F.Campaign.total;
    { bp_engine = (match engine with `Kernel -> "kernel" | _ -> "batched");
      bp_jobs = jobs;
      bp_batch = (match engine with `Kernel -> 0 | _ -> batch);
      bp_wall_us = t;
      bp_fps = float_of_int r.F.Campaign.total /. (t *. 1e-6);
      bp_batched = s.F.Campaign.batched;
      bp_retired = s.F.Campaign.retired_early;
      bp_identical = String.equal (full r) reference;
      bp_eff = 1. }
  in
  let points =
    List.concat_map
      (fun jobs ->
        point ~engine:`Kernel ~jobs ~batch:32
        :: List.map
             (fun k -> point ~engine:`Auto ~jobs ~batch:k)
             [ 1; 8; 32; 64 ])
      jobs_list
  in
  (* efficiency is a view over the matrix — each point against its own
     engine/batch column's jobs=1 base, normalized by what the host
     can parallelize (jobs=1 points come out exactly 1.0) *)
  let host = host_domains () in
  let points =
    List.map
      (fun p ->
        match
          List.find_opt
            (fun q ->
              q.bp_jobs = 1 && q.bp_engine = p.bp_engine
              && q.bp_batch = p.bp_batch)
            points
        with
        | Some base when base.bp_fps > 0. ->
          let epar = float_of_int (max 1 (min p.bp_jobs host)) in
          { p with bp_eff = p.bp_fps /. (epar *. base.bp_fps) }
        | _ -> p)
      points
  in
  { bm_name = m.C.Model.name; bm_faults = !faults; bm_points = points }

let c12_models ~smoke () =
  let widest = c12_measure ~smoke (widest_corpus_model ()) in
  if smoke then [ widest ]
  else
    [ widest;
      c12_measure ~smoke ~limit:120
        (Workloads.parallel_lanes ~lanes:8 ~steps:24) ]

let claim_batch ?(smoke = false) () =
  section "C12" "batched lockstep campaigns: throughput and early retirement";
  let models = c12_models ~smoke () in
  List.iter
    (fun bm ->
      Format.printf
        "%s, %d faults (kernel = PR 3 checkpoint-restore path, K = lockstep \
         batch size):@."
        bm.bm_name bm.bm_faults;
      Format.printf "%6s %8s %4s | %12s %12s %9s %6s %9s %10s@." "jobs"
        "engine" "K" "wall us" "faults/s" "speedup" "eff" "retired" "report";
      let kernel_walls = ref [] in
      List.iter
        (fun p ->
          if p.bp_engine = "kernel" then
            kernel_walls := (p.bp_jobs, p.bp_wall_us) :: !kernel_walls;
          let speedup =
            match List.assoc_opt p.bp_jobs !kernel_walls with
            | Some t0 -> Printf.sprintf "%8.2fx" (t0 /. p.bp_wall_us)
            | None -> Printf.sprintf "%9s" "-"
          in
          let retired =
            if p.bp_batched = 0 then Printf.sprintf "%9s" "-"
            else
              Printf.sprintf "%8.0f%%"
                (100. *. float_of_int p.bp_retired
                 /. float_of_int (max 1 bm.bm_faults))
          in
          Format.printf "%6d %8s %4s | %12.1f %12.1f %s %6.2f %s %10s@."
            p.bp_jobs p.bp_engine
            (if p.bp_batch = 0 then "-" else string_of_int p.bp_batch)
            p.bp_wall_us p.bp_fps speedup p.bp_eff retired
            (if p.bp_identical then "identical" else "DIFFERS"))
        bm.bm_points;
      Format.printf "@.")
    models;
  Format.printf
    "(one batched pass computes both engines' classifications from the\n\
    \ shared observation, so the speedup compounds: no per-fault kernel\n\
    \ run, no per-fault interpreter run, and a variant that re-converges\n\
    \ to the golden row retires as masked before the schedule ends;\n\
    \ 'eff' is scaling efficiency, faults/s at jobs=N over\n\
    \ min(N, %d host cores) x faults/s at jobs=1;\n\
    \ 'report' re-checks that every cell printed the same bytes as the\n\
    \ sequential kernel reference)@."
    (host_domains ())

(* -- BENCH_batch.json: the machine-readable C12 matrix -------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let bench_json ?(smoke = false) ~out () =
  let models = c12_models ~smoke () in
  let oc = open_out out in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"csrtl-bench-batch/2\",\n";
  p "  \"smoke\": %b,\n" smoke;
  p "  \"host_domains\": %d,\n" (host_domains ());
  p "  \"models\": [\n";
  List.iteri
    (fun i bm ->
      p "    {\n";
      p "      \"model\": \"%s\",\n" (json_escape bm.bm_name);
      p "      \"faults\": %d,\n" bm.bm_faults;
      p "      \"points\": [\n";
      List.iteri
        (fun j pt ->
          p
            "        {\"engine\": \"%s\", \"jobs\": %d, \"batch\": %d, \
             \"wall_us\": %.1f, \"faults_per_sec\": %.1f, \
             \"efficiency\": %.3f, \"batched\": %d, \
             \"retired_early\": %d, \"identical\": %b}%s\n"
            pt.bp_engine pt.bp_jobs pt.bp_batch pt.bp_wall_us pt.bp_fps
            pt.bp_eff pt.bp_batched pt.bp_retired pt.bp_identical
            (if j = List.length bm.bm_points - 1 then "" else ","))
        bm.bm_points;
      p "      ]\n";
      p "    }%s\n" (if i = List.length models - 1 then "" else ","))
    models;
  p "  ]\n";
  p "}\n";
  close_out oc;
  Format.printf "wrote %s: %d models, %d points@." out (List.length models)
    (List.fold_left (fun n bm -> n + List.length bm.bm_points) 0 models)

(* A dependency-free JSON reader, enough to schema-check the file the
   emitter above writes (the toolchain has no JSON library). *)
type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jlist of json list
  | Jobj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let next () =
    if !pos >= n then fail "unexpected end";
    let c = s.[!pos] in
    incr pos;
    c
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if next () <> c then fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    String.iter (fun c -> expect c) word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
        (match next () with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' ->
           let h = String.init 4 (fun _ -> next ()) in
           (try Buffer.add_char b (Char.chr (int_of_string ("0x" ^ h) land 0xff))
            with _ -> fail "bad \\u escape")
         | _ -> fail "bad escape");
        go ()
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      incr pos
    done;
    if !pos = start then fail "expected a number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      expect '{';
      skip_ws ();
      if peek () = Some '}' then (incr pos; Jobj [])
      else
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match next () with
          | ',' -> members ((k, v) :: acc)
          | '}' -> Jobj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
    | Some '[' ->
      expect '[';
      skip_ws ();
      if peek () = Some ']' then (incr pos; Jlist [])
      else
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match next () with
          | ',' -> elems (v :: acc)
          | ']' -> Jlist (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elems []
    | Some '"' -> Jstr (parse_string ())
    | Some 't' -> literal "true" (Jbool true)
    | Some 'f' -> literal "false" (Jbool false)
    | Some 'n' -> literal "null" Jnull
    | Some _ -> Jnum (parse_number ())
    | None -> fail "unexpected end"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* Schema: {schema: "csrtl-bench-batch/2", smoke: bool,
   host_domains: int >= 1, models: [{model: str, faults: int >= 0,
   points: [{engine: kernel|batched, jobs >= 1, batch (0 iff kernel),
   wall_us > 0, faults_per_sec >= 0, efficiency > 0 (exactly 1 at
   jobs=1 — each point normalizes against its own engine/batch
   column's jobs=1 base), batched >= 0, retired_early >= 0,
   identical: true}+]}+]}.
   [identical] must be [true] everywhere: a benchmark point that
   printed different report bytes is not a data point, it is a bug. *)
let json_check path =
  try
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    let field name = function
      | Jobj kvs ->
        (match List.assoc_opt name kvs with
         | Some v -> v
         | None -> raise (Bad_json (Printf.sprintf "missing field %S" name)))
      | _ -> raise (Bad_json (Printf.sprintf "expected an object at %S" name))
    in
    let str name j =
      match field name j with
      | Jstr s -> s
      | _ -> raise (Bad_json (Printf.sprintf "%S must be a string" name))
    in
    let num name j =
      match field name j with
      | Jnum f -> f
      | _ -> raise (Bad_json (Printf.sprintf "%S must be a number" name))
    in
    let bool_ name j =
      match field name j with
      | Jbool b -> b
      | _ -> raise (Bad_json (Printf.sprintf "%S must be a boolean" name))
    in
    let nonempty name = function
      | Jlist [] -> raise (Bad_json (Printf.sprintf "%S must not be empty" name))
      | Jlist xs -> xs
      | _ -> raise (Bad_json (Printf.sprintf "%S must be a list" name))
    in
    let root = parse_json text in
    if str "schema" root <> "csrtl-bench-batch/2" then
      raise (Bad_json "unknown schema tag");
    ignore (bool_ "smoke" root);
    if num "host_domains" root < 1. then
      raise (Bad_json "host_domains must be >= 1");
    let models = nonempty "models" (field "models" root) in
    let npoints = ref 0 in
    List.iter
      (fun bm ->
        let name = str "model" bm in
        if num "faults" bm < 0. then
          raise (Bad_json (name ^ ": negative fault count"));
        let points = nonempty "points" (field "points" bm) in
        List.iter
          (fun pt ->
            incr npoints;
            let engine = str "engine" pt in
            if engine <> "kernel" && engine <> "batched" then
              raise (Bad_json (name ^ ": engine must be kernel|batched"));
            if num "jobs" pt < 1. then
              raise (Bad_json (name ^ ": jobs must be >= 1"));
            let batch = num "batch" pt in
            if (engine = "kernel") <> (batch = 0.) then
              raise (Bad_json (name ^ ": batch must be 0 iff engine=kernel"));
            if num "wall_us" pt <= 0. then
              raise (Bad_json (name ^ ": wall_us must be positive"));
            if num "faults_per_sec" pt < 0. then
              raise (Bad_json (name ^ ": negative faults_per_sec"));
            let eff = num "efficiency" pt in
            if eff <= 0. then
              raise (Bad_json (name ^ ": efficiency must be positive"));
            if num "jobs" pt = 1. && eff <> 1. then
              raise
                (Bad_json
                   (name
                    ^ ": a jobs=1 point is its own efficiency base and must \
                       report exactly 1.000"));
            if num "batched" pt < 0. || num "retired_early" pt < 0. then
              raise (Bad_json (name ^ ": negative dispatch counters"));
            if not (bool_ "identical" pt) then
              raise
                (Bad_json
                   (name ^ ": a point reported non-identical report bytes")))
          points)
      models;
    Ok
      (Printf.sprintf "%s: schema csrtl-bench-batch/2 ok (%d models, %d points)"
         path (List.length models) !npoints)
  with
  | Bad_json e -> Error e
  | Sys_error e -> Error e

(* -- scaling smoke: the CI gate on multicore campaign throughput ---------- *)

(* Asserts the tentpole property on the machine actually running the
   checks: adding a second worker must deliver >= 60% of a perfect
   second core — normalized by the cores the host has, so on a
   single-core runner the bound degenerates to "jobs=2 must not be
   slower than jobs=1" (the inverted-scaling regression this guards
   against).  Reports are byte-compared against the sequential kernel
   reference first: a fast wrong campaign is a bug, not a pass.

   The timed campaign must repay a pool: the kernel path over a
   48-transfer chain, about 0.4 s on one domain, whose per-fault runs
   [Par.map_gated] fans out.  A batched campaign small enough for its
   kernel reference to be computed here stays under
   [Par.break_even_us], so its jobs=2 leg runs on one domain and could
   never meet a bound divided by two.  The batched path still answers
   to the reference: its 2-job report must print the kernel path's
   bytes. *)
let scaling_check () =
  let module F = Csrtl_fault in
  let m = Workloads.chain 48 in
  let full (r : F.Campaign.report) =
    Format.asprintf "%a@.%a" F.Campaign.pp_report r
      (Format.pp_print_list F.Campaign.pp_entry)
      r.F.Campaign.entries
  in
  let reference = full (F.Campaign.run ~engine:`Kernel m) in
  let batched =
    full (F.Campaign.run_parallel ~jobs:2 ~engine:`Auto ~batch:32 m)
  in
  let host = host_domains () in
  let epar = float_of_int (max 1 (min 2 host)) in
  let measure jobs =
    (* best of three: the gate bounds capability, not scheduler luck *)
    let best = ref infinity and rep = ref None in
    for _ = 1 to 3 do
      let t =
        Workloads.wall_us (fun () ->
            rep := Some (F.Campaign.run_parallel ~jobs ~engine:`Kernel m))
      in
      if t < !best then best := t
    done;
    (Option.get !rep, !best)
  in
  let attempt () =
    let r1, t1 = measure 1 in
    let r2, t2 = measure 2 in
    let eff = t1 /. (epar *. t2) in
    let identical =
      String.equal (full r1) reference
      && String.equal (full r2) reference
      && String.equal batched reference
    in
    (eff, t1, t2, identical)
  in
  let eff, t1, t2, identical = attempt () in
  (* one retry before failing on the bound alone: wall-clock noise on
     a loaded runner is not a scaling regression *)
  let eff, t1, t2, identical =
    if identical && eff < 0.6 then attempt () else (eff, t1, t2, identical)
  in
  Format.printf
    "scaling smoke on %s: host %d domain%s, jobs=1 %.0f us, jobs=2 %.0f us, \
     efficiency %.2f, reports %s@."
    m.C.Model.name host
    (if host = 1 then "" else "s")
    t1 t2 eff
    (if identical then "identical" else "DIFFER");
  if not identical then
    Error "scaling smoke: report bytes differ from the kernel reference"
  else if eff < 0.6 then
    Error
      (Printf.sprintf
         "scaling smoke: 2-worker efficiency %.2f < 0.6 (jobs=1 %.0f us, \
          jobs=2 %.0f us, %d-domain host)"
         eff t1 t2 host)
  else Ok ()

(* -- C13: campaign-as-a-service throughput --------------------------------- *)

(* Requests/sec against a live csrtl-serve daemon, N concurrent
   clients, cold (every request a fresh model, compile-cache miss) vs
   cached (one model repeated, model cache only — the daemon runs with
   --plan-cache 0 --golden-cache 0 so this column keeps its pre-tier
   meaning) vs warm_plan (the same repeated model against a daemon with
   the plan and golden tiers on: every timed request skips fault
   enumeration and the golden simulations) vs recovery (a 10% injected
   worker-kill rate — the crash-only restart path priced against the
   clean runs).  Every column runs the real csrtl binary as a separate
   daemon process, because each campaign worker re-executes the
   daemon's own program (see lib/serve/worker.ml) and only csrtl routes
   that invocation to the worker entry point; this harness does not.
   Clients speak the real socket protocol through Csrtl_serve.Client,
   so the measured path is the shipped one end to end.  Every response
   is byte-compared against the offline report — a fast wrong answer
   is not a data point, and neither is a crash the supervisor failed
   to recover. *)

type serve_point = {
  sp_clients : int;
  sp_mode : string;
      (* "cold" | "cached" | "warm_plan" | "recovery" *)
  sp_requests : int;
  sp_wall_us : float;
  sp_rps : float;
  sp_identical : bool;
}

let serve_points ~smoke () =
  let module S = Csrtl_serve in
  let base = Workloads.chain (if smoke then 32 else 256) in
  (* every request campaigns a [bench_limit]-fault slice of a long
     chain, and the cached/warm_plan modes request the same model
     repeatedly with [resume = true] — the daemon's steady state,
     where the journal is reused wholesale (serve.t).  On that path
     the per-request work left is exactly what the artifact tiers
     remove: plan compilation and the two clean golden simulations.
     The same limit goes to every mode and to the offline expectation,
     so the columns stay comparable. *)
  let bench_limit = 2 in
  let model_named name = { base with C.Model.name = name } in
  let state_dir = Filename.temp_file "csrtl_bench" ".state" in
  Sys.remove state_dir;
  let sock = Filename.temp_file "csrtl" ".sock" in
  Sys.remove sock;
  let expected_cache = Hashtbl.create 16 in
  let expected_lock = Mutex.create () in
  (* the request text per model name, rendered once — a real client
     holds its model file's bytes; re-rendering 256 transfers inside
     the timed loop would bill client-side formatting to the daemon *)
  let text_cache = Hashtbl.create 16 in
  let text_lock = Mutex.create () in
  let model_text name =
    Mutex.lock text_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock text_lock) (fun () ->
        match Hashtbl.find_opt text_cache name with
        | Some t -> t
        | None ->
          let t = C.Rtm.to_string (model_named name) in
          Hashtbl.replace text_cache name t;
          t)
  in
  let expected name =
    Mutex.lock expected_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock expected_lock) (fun () ->
        match Hashtbl.find_opt expected_cache name with
        | Some t -> t
        | None ->
          let t =
            Csrtl_fault.Campaign.render_report ~table:false
              (Csrtl_fault.Campaign.run ~limit:bench_limit
                 (model_named name))
          in
          Hashtbl.replace expected_cache name t;
          t)
  in
  let rec await_report conn =
    match S.Client.next conn with
    | None -> Error "daemon closed the connection"
    | Some (_, Ok (S.Frame.Report { text; _ })) -> Ok text
    | Some (_, Ok (S.Frame.Refused _)) -> Error "request refused"
    | Some (_, Ok (S.Frame.Drained _)) -> Error "campaign drained"
    | Some (_, Ok _) -> await_report conn
    | Some (_, Error _) -> Error "undecodable response"
  in
  let per = if smoke then 2 else 6 in
  let run_point idx clients mode =
    let identical = Atomic.make true in
    let t0 = Unix.gettimeofday () in
    let threads =
      List.init clients (fun ci ->
          Thread.create
            (fun () ->
              match S.Client.connect sock with
              | Error _ -> Atomic.set identical false
              | Ok conn ->
                Fun.protect
                  ~finally:(fun () -> S.Client.close conn)
                  (fun () ->
                    for r = 0 to per - 1 do
                      let name =
                        match mode with
                        | `Cold -> Printf.sprintf "cold_%d_%d_%d" idx ci r
                        | `Cached -> "cached_chain"
                        | `Warm -> "warm_chain"
                        | `Recovery -> Printf.sprintf "rec_%d_%d_%d" idx ci r
                      in
                      let q resume =
                        { S.Frame.model = model_text name;
                          engine = `Auto; batch = 32; limit = Some bench_limit;
                          budget_ms = None; deadline_ms = None;
                          table = false; stream = false; resume }
                      in
                      (* under injected kills a request may come back
                         Refused (serve.worker); resending resumes the
                         journal — that round trip is part of the
                         recovery price being measured *)
                      let rec request tries resume =
                        match S.Client.send conn (S.Frame.Inject (q resume))
                        with
                        | Error _ -> Atomic.set identical false
                        | Ok () ->
                          (match await_report conn with
                           | Ok text when text = expected name -> ()
                           | Error "request refused" when tries < 3 ->
                             request (tries + 1) true
                           | Ok _ | Error _ -> Atomic.set identical false)
                      in
                      let resume0 =
                        match mode with
                        | `Cached | `Warm -> true
                        | `Cold | `Recovery -> false
                      in
                      request 0 resume0
                    done))
            ())
    in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    let requests = clients * per in
    { sp_clients = clients;
      sp_mode =
        (match mode with
         | `Cold -> "cold"
         | `Cached -> "cached"
         | `Warm -> "warm_plan"
         | `Recovery -> "recovery");
      sp_requests = requests; sp_wall_us = wall *. 1e6;
      sp_rps = (if wall > 0. then float_of_int requests /. wall else 0.);
      sp_identical = Atomic.get identical }
  in
  let fan = if smoke then [ 1; 2 ] else [ 1; 2; 4 ] in
  (* one untimed request builds the named model's journal (and, when
     the tiers are on, its plan and golden artifact), so the timed
     cached/warm_plan requests price the daemon's steady state *)
  let prime name =
    match S.Client.connect sock with
    | Error e -> failwith ("serve bench: priming connect: " ^ e)
    | Ok conn ->
      Fun.protect
        ~finally:(fun () -> S.Client.close conn)
        (fun () ->
          (match
             S.Client.send conn
               (S.Frame.Inject
                  { S.Frame.model = model_text name;
                    engine = `Auto; batch = 32; limit = Some bench_limit;
                    budget_ms = None; deadline_ms = None;
                    table = false; stream = false; resume = false })
           with
           | Ok () -> ()
           | Error e -> failwith ("serve bench: priming send: " ^ e));
          match await_report conn with
          | Ok text when text = expected name -> ()
          | Ok _ | Error _ -> failwith "serve bench: priming request failed")
  in
  let csrtl_exe =
    List.fold_left Filename.concat
      (Filename.dirname Sys.executable_name)
      [ Filename.parent_dir_name; "bin"; "csrtl.exe" ]
  in
  let with_daemon ?(env = [||]) args f =
    if not (Sys.file_exists csrtl_exe) then
      failwith ("serve bench: csrtl binary not found at " ^ csrtl_exe);
    let pid =
      Unix.create_process_env csrtl_exe
        (Array.append
           [| csrtl_exe; "serve"; "--socket"; sock; "--state-dir"; state_dir;
              "--quiet"; "--jobs"; "1"; "--max-pending"; "64" |]
           args)
        (Array.append (Unix.environment ()) env)
        Unix.stdin Unix.stdout Unix.stderr
    in
    Fun.protect
      ~finally:(fun () ->
        (try ignore (Unix.waitpid [ Unix.WNOHANG ] pid)
         with Unix.Unix_error _ -> ()))
      (fun () ->
        (match S.Client.connect ~retries:500 ~delay:0.01 sock with
         | Ok c -> S.Client.close c
         | Error e ->
           (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
           ignore (Unix.waitpid [] pid);
           failwith ("serve bench: daemon never came up: " ^ e));
        let r = f () in
        (match S.Client.connect sock with
         | Ok c ->
           ignore (S.Client.send c S.Frame.Shutdown);
           (match S.Client.next c with _ -> ());
           S.Client.close c
         | Error _ ->
           try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        r)
  in
  (* cold and cached price the pre-tier daemon: artifact tiers off, so
     "cached" stays the model-cache-only baseline warm_plan is
     compared against — its requests reuse the journal but still
     re-enumerate the faults and re-run both goldens every time *)
  let clean_points =
    with_daemon [| "--plan-cache"; "0"; "--golden-cache"; "0" |] (fun () ->
        prime "cached_chain";
        List.concat_map
          (fun clients ->
            List.mapi
              (fun i mode -> run_point ((clients * 2) + i) clients mode)
              [ `Cold; `Cached ])
          fan)
  in
  (* warm_plan: same requests against a daemon with the tiers on — the
     plan and golden hits are the only difference from "cached" *)
  let warm_points =
    with_daemon [||] (fun () ->
        prime "warm_chain";
        List.map
          (fun clients -> run_point ((clients * 8) + 1) clients `Warm)
          fan)
  in
  (* recovery column: every 10th worker spawn SIGKILLed by the
     daemon's own chaos knob.  The offline expectations are computed up
     front so the timed loop prices recovery round trips, not
     Campaign.run. *)
  List.iter
    (fun clients ->
      for ci = 0 to clients - 1 do
        for r = 0 to per - 1 do
          ignore (expected (Printf.sprintf "rec_%d_%d_%d" (clients * 16) ci r))
        done
      done)
    fan;
  let recovery_points =
    with_daemon
      ~env:[| "CSRTL_SERVE_KILL_NTH=10" |]
      [| "--max-restarts"; "3"; "--quarantine-after"; "0" |]
      (fun () ->
        List.map (fun clients -> run_point (clients * 16) clients `Recovery)
          fan)
  in
  let points = clean_points @ warm_points @ recovery_points in
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun f -> rm_rf (Filename.concat path f))
        (Sys.readdir path);
      Unix.rmdir path
    | _ -> Unix.unlink path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  rm_rf state_dir;
  points

let serve_json ?(smoke = false) ~out () =
  let points = serve_points ~smoke () in
  let oc = open_out out in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"csrtl-bench-serve/4\",\n";
  p "  \"smoke\": %b,\n" smoke;
  p "  \"points\": [\n";
  List.iteri
    (fun i pt ->
      p
        "    {\"clients\": %d, \"mode\": \"%s\", \"requests\": %d, \
         \"wall_us\": %.1f, \"requests_per_sec\": %.2f, \"identical\": %b}%s\n"
        pt.sp_clients pt.sp_mode pt.sp_requests pt.sp_wall_us pt.sp_rps
        pt.sp_identical
        (if i = List.length points - 1 then "" else ","))
    points;
  p "  ]\n";
  p "}\n";
  close_out oc;
  Format.printf "wrote %s: %d points@." out (List.length points);
  Format.printf "  %-8s %-7s %10s %14s %10s@." "clients" "mode" "requests"
    "req/s" "identical";
  List.iter
    (fun pt ->
      Format.printf "  %-8d %-7s %10d %14.2f %10b@." pt.sp_clients pt.sp_mode
        pt.sp_requests pt.sp_rps pt.sp_identical)
    points

(* Schema: {schema: "csrtl-bench-serve/4", smoke: bool, points:
   [{clients >= 1, mode: cold|cached|warm_plan|recovery,
   requests >= 1, wall_us > 0, requests_per_sec >= 0,
   identical: true}+]}.  As with the batch matrix, [identical] must be
   [true] everywhere — in recovery mode that asserts every injected
   worker kill was recovered to byte-identical bytes.  The /4 schema
   requires at least one warm_plan point: a regenerated file that
   silently dropped the artifact-tier column must fail the check. *)
let json_check_serve path =
  try
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    let field name = function
      | Jobj kvs ->
        (match List.assoc_opt name kvs with
         | Some v -> v
         | None -> raise (Bad_json (Printf.sprintf "missing field %S" name)))
      | _ -> raise (Bad_json (Printf.sprintf "expected an object at %S" name))
    in
    let str name j =
      match field name j with
      | Jstr s -> s
      | _ -> raise (Bad_json (Printf.sprintf "%S must be a string" name))
    in
    let num name j =
      match field name j with
      | Jnum f -> f
      | _ -> raise (Bad_json (Printf.sprintf "%S must be a number" name))
    in
    let bool_ name j =
      match field name j with
      | Jbool b -> b
      | _ -> raise (Bad_json (Printf.sprintf "%S must be a boolean" name))
    in
    let root = parse_json text in
    if str "schema" root <> "csrtl-bench-serve/4" then
      raise (Bad_json "unknown schema tag");
    ignore (bool_ "smoke" root);
    let points =
      match field "points" root with
      | Jlist [] -> raise (Bad_json "\"points\" must not be empty")
      | Jlist xs -> xs
      | _ -> raise (Bad_json "\"points\" must be a list")
    in
    let saw_warm = ref false in
    List.iter
      (fun pt ->
        if num "clients" pt < 1. then
          raise (Bad_json "clients must be >= 1");
        let mode = str "mode" pt in
        if mode = "warm_plan" then saw_warm := true;
        if
          mode <> "cold" && mode <> "cached" && mode <> "warm_plan"
          && mode <> "recovery"
        then raise (Bad_json "mode must be cold|cached|warm_plan|recovery");
        if num "requests" pt < 1. then
          raise (Bad_json "requests must be >= 1");
        if num "wall_us" pt <= 0. then
          raise (Bad_json "wall_us must be positive");
        if num "requests_per_sec" pt < 0. then
          raise (Bad_json "negative requests_per_sec");
        if not (bool_ "identical" pt) then
          raise (Bad_json "a point reported non-identical report bytes"))
      points;
    if not !saw_warm then
      raise (Bad_json "no warm_plan point: artifact-tier column missing");
    Ok
      (Printf.sprintf "%s: schema csrtl-bench-serve/4 ok (%d points)" path
         (List.length points))
  with
  | Bad_json e -> Error e
  | Sys_error e -> Error e

let run () =
  Format.printf
    "csrtl experiment report - regenerates the paper's figures, table and \
     claims@.";
  fig1 ();
  fig2 ();
  fig3_iks ();
  claim_roundtrip ();
  claim_conflict ();
  claim_speed ();
  ablations ();
  claim_lowering ();
  claim_hls ();
  claim_transform ();
  claim_consistency ();
  claim_verify ();
  claim_vhdl ();
  claim_fault ();
  claim_multicore ();
  claim_checkpoint ();
  claim_batch ()
