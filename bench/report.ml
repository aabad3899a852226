(* The experiment report: regenerates every figure, table and claim of
   the paper's evaluation (DESIGN.md experiments index F1-F3, T1,
   C1-C9, T and A) as printed tables, plus the multicore scaling gate
   that `make check` runs.  Wall-clock columns here are single
   medians-of-3 for orientation; perfbench/ is the performance
   harness. *)

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

(* -- scaling smoke: the CI gate on multicore campaign throughput ---------- *)

let host_domains () = Domain.recommended_domain_count ()

(* Asserts the multicore property on the machine actually running the
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
  claim_fault ()
