(* csrtl — command-line driver for the clock-free RT level toolkit.

   Subcommands: sim, check, export-vhdl, import-vhdl, lower, hls, iks,
   info.  Models are exchanged in the textual .rtm format (see
   Csrtl_core.Rtm) or as paper-style VHDL. *)

open Cmdliner
module C = Csrtl_core
module Diag = Csrtl_diag.Diag

(* Exit-code contract (docs/DIAGNOSTICS.md): 0 success, 1 findings or
   a verification failure, 2 bad input (diagnostics on stderr), 3
   internal bug.  `inject` additionally keeps its documented
   fault-classification codes. *)

let exit_findings = 1
let exit_bad_input = 2
let exit_bug = 3

let die_diags ?source diags =
  prerr_string (Diag.render_all ?source diags);
  exit exit_bad_input

let die2 fmt =
  Format.kasprintf
    (fun m ->
      Format.eprintf "error: %s@." m;
      exit exit_bad_input)
    fmt

let warn_diags ?source diags =
  if diags <> [] then prerr_string (Diag.render_all ?source diags)

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let load_model path =
  let text = read_file path in
  if Filename.check_suffix path ".vhd" || Filename.check_suffix path ".vhdl"
  then
    match Csrtl_vhdl.Extract.model_of_string_diag ~file:path text with
    | Ok (m, warns) ->
      warn_diags ~source:text warns;
      m
    | Error diags -> die_diags ~source:text diags
  else
    match C.Rtm.parse ~file:path text with
    | Ok (m, warns) ->
      warn_diags ~source:text warns;
      m
    | Error diags -> die_diags ~source:text diags

let model_arg =
  let doc = "Model file (.rtm, or .vhd/.vhdl emitted by export-vhdl)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"MODEL" ~doc)

let contains_bug_marker msg =
  let n = String.length msg in
  let rec go i = i + 4 <= n && (String.sub msg i 4 = "Bug:" || go (i + 1)) in
  go 0

let handle_errors f =
  try f () with
  | C.Rtm.Parse_error (line, msg) ->
    Format.eprintf "error[rtm.parse]: line %d: %s@." line msg;
    exit exit_bad_input
  | Csrtl_vhdl.Lexer.Lex_error (line, msg) ->
    Format.eprintf "error[vhdl.lex]: line %d: %s@." line msg;
    exit exit_bad_input
  | Csrtl_vhdl.Parser.Parse_error (line, msg) ->
    Format.eprintf "error[vhdl.syntax]: line %d: %s@." line msg;
    exit exit_bad_input
  | Csrtl_vhdl.Extract.Extract_error msg ->
    Format.eprintf "error[vhdl.extract]: %s@." msg;
    exit exit_bad_input
  | Csrtl_vhdl.Elab.Elab_error msg ->
    Format.eprintf "error[vhdl.elab]: %s@." msg;
    exit exit_bad_input
  | Csrtl_hls.Parse.Parse_error (line, msg) ->
    Format.eprintf "error[alg.parse]: line %d: %s@." line msg;
    exit exit_bad_input
  | Csrtl_clocked.Lower.Lowering_error msg ->
    Format.eprintf "error[lower]: %s@." msg;
    exit exit_bad_input
  | Invalid_argument msg when not (contains_bug_marker msg) ->
    Format.eprintf "error[model.validate]: %s@." msg;
    exit exit_bad_input
  | Sys_error msg ->
    Format.eprintf "error: %s@." msg;
    exit exit_bad_input
  | e ->
    Format.eprintf "internal error (a bug, please report): %s@."
      (Printexc.to_string e);
    exit exit_bug

(* -- sim ------------------------------------------------------------------ *)

let sim_cmd =
  let engine =
    let doc =
      "Execution engine: $(b,kernel) (event-driven delta cycles), \
       $(b,interp) (direct control-step interpreter), $(b,compiled) \
       (phase-compiled static schedule, fastest), or $(b,auto) \
       (compiled when the run permits it, kernel otherwise)."
    in
    Arg.(value
         & opt
             (enum
                [ ("kernel", `Kernel); ("interp", `Interp);
                  ("compiled", `Compiled); ("auto", `Auto) ])
             `Kernel
         & info [ "engine" ] ~doc)
  in
  let vcd =
    let doc = "Write a VCD waveform (delta-cycle axis) to $(docv)." in
    Arg.(value & opt (some string) None & info [ "vcd" ] ~docv:"FILE" ~doc)
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print kernel statistics.")
  in
  let wave =
    Arg.(value & flag
         & info [ "wave" ] ~doc:"Render a text waveform of the run.")
  in
  let snapshot_at =
    let doc =
      "Capture the machine state at control-step boundary $(docv) (0 = \
       initial state) instead of printing the observation.  All engines \
       produce byte-identical snapshots."
    in
    Arg.(value & opt (some int) None
         & info [ "snapshot-at" ] ~docv:"STEP" ~doc)
  in
  let snapshot_out =
    Arg.(value & opt (some string) None
         & info [ "snapshot-out" ] ~docv:"FILE"
             ~doc:"Write the $(b,--snapshot-at) state to $(docv) instead \
                   of stdout.")
  in
  let from_snapshot =
    let doc =
      "Resume from a snapshot file instead of the initial state: the \
       printed observation is identical to an uninterrupted run's."
    in
    Arg.(value & opt (some string) None
         & info [ "from-snapshot" ] ~docv:"FILE" ~doc)
  in
  let run path engine vcd stats wave snapshot_at snapshot_out from_snapshot =
    handle_errors (fun () ->
        let m = load_model path in
        C.Model.validate_exn m;
        (match snapshot_at, from_snapshot with
         | Some _, Some _ ->
           Format.eprintf
             "--snapshot-at and --from-snapshot are mutually exclusive@.";
           exit exit_bad_input
         | _ -> ());
        (match snapshot_at with
         | Some s when s < 0 || s > m.C.Model.cs_max ->
           Format.eprintf
             "--snapshot-at must be a boundary between 0 and cs_max = %d \
              (got %d)@."
             m.C.Model.cs_max s;
           exit exit_bad_input
         | _ -> ());
        let resume_from =
          match from_snapshot with
          | None -> None
          | Some file ->
            (match C.Snapshot.load file with
             | Ok s ->
               (match C.Snapshot.validate m s with
                | Ok () -> Some s
                | Error msg ->
                  Format.eprintf "snapshot %s does not fit %s: %s@." file
                    m.C.Model.name msg;
                  exit exit_bad_input)
             | Error msg ->
               Format.eprintf "cannot load snapshot %s: %s@." file msg;
               exit exit_bad_input)
        in
        let emit_snapshot snap =
          match snapshot_out with
          | None -> print_string (C.Snapshot.to_string snap)
          | Some file ->
            C.Snapshot.save file snap;
            Format.printf "wrote %s (boundary %d of %s)@." file
              snap.C.Snapshot.step snap.C.Snapshot.model_name
        in
        let engine =
          (* [auto] prefers the compiled schedule; VCD streaming and
             non-static features need the kernel *)
          match engine with
          | `Auto ->
            if vcd = None && C.Sched.compilable m = Ok () then `Compiled
            else `Kernel
          | e -> e
        in
        match engine with
        | `Auto -> assert false
        | `Compiled ->
          (match vcd with
           | Some _ ->
             Format.eprintf
               "the compiled engine does not stream VCD; use --engine \
                kernel@.";
             exit 1
           | None -> ());
          (* the static-schedule arena's golden row: one uninjected
             run, a checkpoint of it, or a resume from a snapshot *)
          let plan = C.Batch.plan m in
          (match snapshot_at with
           | Some step ->
             List.iter emit_snapshot (C.Batch.snapshots_at plan ~steps:[ step ])
           | None ->
             let obs =
               match resume_from with
               | Some from -> C.Batch.resume plan ~from
               | None -> fst (C.Batch.golden_with plan [])
             in
             Format.printf "%a@." C.Observation.pp obs;
             if wave then Format.printf "@.%s@." (C.Waveform.render obs);
             (match resume_from with
              | None ->
                (* the law the arena's cycle counts are read off *)
                Format.printf "simulation cycles: %d (expected %d)@."
                  (C.Simulate.expected_cycles_with (C.Batch.legs plan)
                     ~inject:C.Inject.none 0)
                  (C.Simulate.expected_cycles m)
              | Some from ->
                Format.printf "resumed at boundary %d@."
                  from.C.Snapshot.step);
             (* the arena keeps no per-run counters: counting in its
                step loop would tax every campaign *)
             if stats then
               Format.printf "schedule actions : %d@."
                 (C.Batch.base_sched plan).C.Sched.static_actions;
             if C.Observation.has_conflict obs then exit exit_findings)
        | `Interp ->
          (match snapshot_at with
           | Some step -> emit_snapshot (C.Interp.snapshot_at ~step m)
           | None ->
             let obs =
               match resume_from with
               | Some from ->
                 Format.printf "resumed at boundary %d@." from.C.Snapshot.step;
                 C.Interp.resume ~from m
               | None -> C.Interp.run m
             in
             Format.printf "%a@." C.Observation.pp obs;
             if wave then Format.printf "@.%s@." (C.Waveform.render obs);
             if C.Observation.has_conflict obs then exit exit_findings)
        | `Kernel ->
          (match snapshot_at with
           | Some step -> emit_snapshot (C.Simulate.snapshot_at ~step m)
           | None ->
             let buf = Buffer.create 4096 in
             let r =
               match resume_from, vcd with
               | Some from, Some _ -> C.Simulate.resume ~vcd:buf ~from m
               | Some from, None -> C.Simulate.resume ~from m
               | None, Some _ -> C.Simulate.run ~vcd:buf m
               | None, None -> C.Simulate.run m
             in
             (match vcd with
              | Some file ->
                let oc = open_out file in
                Buffer.output_buffer oc buf;
                close_out oc;
                Format.printf "wrote %s@." file
              | None -> ());
             Format.printf "%a@." C.Observation.pp r.C.Simulate.obs;
             if wave then
               Format.printf "@.%s@." (C.Waveform.render r.C.Simulate.obs);
             (match resume_from with
              | None ->
                Format.printf "simulation cycles: %d (expected %d)@."
                  r.C.Simulate.cycles (C.Simulate.expected_cycles m)
              | Some from ->
                Format.printf
                  "simulation cycles: %d (expected %d for the segment from \
                   boundary %d)@."
                  r.C.Simulate.cycles
                  (C.Simulate.expected_cycles_from m from.C.Snapshot.step)
                  from.C.Snapshot.step);
             if stats then
               Format.printf "%a@." Csrtl_kernel.Scheduler.pp_stats
                 r.C.Simulate.stats;
             if C.Observation.has_conflict r.C.Simulate.obs then exit exit_findings))
  in
  let doc = "Simulate a clock-free model and print the observation." in
  Cmd.v (Cmd.info "sim" ~doc)
    Term.(const run $ model_arg $ engine $ vcd $ stats $ wave $ snapshot_at
          $ snapshot_out $ from_snapshot)

(* -- check ---------------------------------------------------------------- *)

let check_cmd =
  let run path =
    handle_errors (fun () ->
        let m = load_model path in
        let errs = C.Model.validate m in
        List.iter
          (fun e -> Format.printf "error: %a@." C.Model.pp_error e)
          errs;
        let conflicts = if errs = [] then C.Conflict.check m else [] in
        List.iter
          (fun c -> Format.printf "conflict: %a@." C.Conflict.pp c)
          conflicts;
        if errs = [] && conflicts = [] then
          Format.printf "%s: ok (%d transfers, cs_max %d)@." m.C.Model.name
            (List.length m.C.Model.transfers)
            m.C.Model.cs_max
        else exit exit_findings)
  in
  let doc = "Validate a model and report static resource conflicts." in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ model_arg)

(* -- export / import VHDL --------------------------------------------------- *)

let output_arg =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")

let write_output out text =
  match out with
  | None -> print_string text
  | Some file ->
    let oc = open_out file in
    output_string oc text;
    close_out oc;
    Format.printf "wrote %s@." file

let export_cmd =
  let self_check =
    Arg.(value & flag
         & info [ "self-check" ]
             ~doc:"Append a checker process asserting the reference                    simulation's register values.")
  in
  let run path self_check out =
    handle_errors (fun () ->
        let m = load_model path in
        C.Model.validate_exn m;
        let text =
          if self_check then
            Csrtl_vhdl.Emit.self_checking_to_string m (C.Interp.run m)
          else Csrtl_vhdl.Emit.to_string m
        in
        write_output out text)
  in
  let doc = "Emit the paper-style VHDL for a model." in
  Cmd.v (Cmd.info "export-vhdl" ~doc)
    Term.(const run $ model_arg $ self_check $ output_arg)

let import_cmd =
  let run path out =
    handle_errors (fun () ->
        let ic = open_in path in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let m = Csrtl_vhdl.Extract.model_of_string text in
        write_output out (C.Rtm.to_string m))
  in
  let doc = "Extract a model from emitted VHDL and print it as .rtm." in
  Cmd.v (Cmd.info "import-vhdl" ~doc)
    Term.(const run $ model_arg $ output_arg)

(* -- run-vhdl ---------------------------------------------------------------- *)

let run_vhdl_cmd =
  let top =
    Arg.(required & opt (some string) None
         & info [ "top" ] ~docv:"ENTITY" ~doc:"Top entity to elaborate.")
  in
  let signals =
    Arg.(value & opt_all string []
         & info [ "show" ] ~docv:"SIGNAL"
             ~doc:"Signal(s) to print after the run (repeatable).")
  in
  let run path top signals =
    handle_errors (fun () ->
        let ic = open_in path in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        match Csrtl_vhdl.Elab.elaborate_and_run ~top text with
        | Error msg ->
          Format.eprintf "error[vhdl.elab]: %s@." msg;
          exit exit_bad_input
        | Ok t ->
          Format.printf "simulation cycles: %d@."
            (Csrtl_kernel.Scheduler.delta_count t.Csrtl_vhdl.Elab.kernel);
          List.iter
            (fun n ->
              match t.Csrtl_vhdl.Elab.lookup n with
              | s ->
                Format.printf "%s = %d@." n (Csrtl_kernel.Signal.value s)
              | exception Not_found ->
                Format.printf "%s: no such signal@." n)
            signals;
          (match !(t.Csrtl_vhdl.Elab.failures) with
           | [] -> Format.printf "assertions: all passed@."
           | fs ->
             List.iter (Format.printf "assertion failed: %s@.") fs;
             exit exit_findings))
  in
  let doc =
    "Elaborate and execute a subset VHDL design directly (interpreted      processes, parsed resolution functions, assertions)."
  in
  Cmd.v (Cmd.info "run-vhdl" ~doc)
    Term.(const run $ model_arg $ top $ signals)

(* -- lint ------------------------------------------------------------------- *)

let lint_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit findings as a JSON array on stdout instead of text.")
  in
  let run path json =
    handle_errors (fun () ->
        let text = read_file path in
        let findings, parse_diags =
          Csrtl_vhdl.Lint.check_source_diags ~file:path text
        in
        if Diag.has_errors parse_diags then
          die_diags ~source:text parse_diags;
        warn_diags ~source:text parse_diags;
        if json then
          print_endline
            (Diag.list_to_json (List.map Csrtl_vhdl.Lint.to_diag findings))
        else
          List.iter
            (fun f -> Format.printf "%a@." Csrtl_vhdl.Lint.pp_finding f)
            findings;
        if Csrtl_vhdl.Lint.conformant findings then (
          if not json then
            Format.printf "%s conforms to the clock-free RT subset@." path)
        else exit exit_findings)
  in
  let doc = "Check a VHDL file against the clock-free RT subset rules." in
  Cmd.v (Cmd.info "lint" ~doc) Term.(const run $ model_arg $ json)

(* -- lower ----------------------------------------------------------------- *)

let lower_cmd =
  let scheme =
    let doc = "Control-step implementation: $(b,one-cycle) or $(b,two-phase)." in
    Arg.(value
         & opt
             (enum
                [ ("one-cycle", Csrtl_clocked.Lower.One_cycle_per_step);
                  ("two-phase", Csrtl_clocked.Lower.Two_phase) ])
             Csrtl_clocked.Lower.One_cycle_per_step
         & info [ "scheme" ] ~doc)
  in
  let vhdl_out =
    Arg.(value & opt (some string) None
         & info [ "vhdl" ] ~docv:"FILE"
             ~doc:"Also emit synthesizable clocked VHDL to $(docv).")
  in
  let run path scheme vhdl_out =
    handle_errors (fun () ->
        let m = load_model path in
        let low = Csrtl_clocked.Lower.lower ~scheme m in
        Format.printf "netlist: %a@." Csrtl_clocked.Netlist.pp_stats
          low.Csrtl_clocked.Lower.net;
        Format.printf "cycles for the schedule: %d@."
          (Csrtl_clocked.Lower.cycles_needed low);
        (match vhdl_out with
         | Some file ->
           let oc = open_out file in
           output_string oc
             (Csrtl_clocked.Emit_vhdl.to_string ~name:m.C.Model.name low);
           close_out oc;
           Format.printf "wrote %s@." file
         | None -> ());
        match Csrtl_clocked.Equiv.check ~scheme m with
        | Ok () -> Format.printf "equivalent to the clock-free model@."
        | Error ms ->
          List.iter
            (fun mm ->
              Format.printf "MISMATCH %a@." Csrtl_clocked.Equiv.pp_mismatch
                mm)
            ms;
          exit exit_findings)
  in
  let doc =
    "Lower a model to a clocked netlist and check per-step equivalence."
  in
  Cmd.v (Cmd.info "lower" ~doc)
    Term.(const run $ model_arg $ scheme $ vhdl_out)

(* -- hls -------------------------------------------------------------------- *)

let hls_cmd =
  let program =
    let doc =
      "Benchmark program (diffeq, fft4, fir:N, horner:N) or a .alg file."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)
  in
  let alus = Arg.(value & opt int 1 & info [ "alus" ] ~doc:"ALU count.") in
  let mults =
    Arg.(value & opt int 1 & info [ "mults" ] ~doc:"Multiplier count.")
  in
  let buses = Arg.(value & opt int 2 & info [ "buses" ] ~doc:"Bus count.") in
  let scheduler =
    let doc = "Scheduler: $(b,list) (resource-constrained) or $(b,fds)                (force-directed, time-constrained)." in
    Arg.(value
         & opt (enum [ ("list", `List); ("fds", `Force_directed) ]) `List
         & info [ "scheduler" ] ~doc)
  in
  let run name alus mults buses scheduler out =
    handle_errors (fun () ->
        let tap n =
          match int_of_string_opt n with
          | Some v when v > 0 -> v
          | _ -> die2 "%s: tap count must be a positive integer" name
        in
        let program =
          if Filename.check_suffix name ".alg" then (
            let text = read_file name in
            match Csrtl_hls.Parse.parse ~file:name text with
            | Ok (p, warns) ->
              warn_diags ~source:text warns;
              p
            | Error diags -> die_diags ~source:text diags)
          else
            match String.split_on_char ':' name with
            | [ "diffeq" ] -> Csrtl_hls.Examples.diffeq
            | [ "fir"; n ] -> Csrtl_hls.Examples.fir (tap n)
            | [ "horner"; n ] -> Csrtl_hls.Examples.horner (tap n)
            | [ "fft4" ] -> Csrtl_hls.Examples.fft4
            | _ -> die2 "unknown program %s" name
        in
        let resources =
          Csrtl_hls.Sched.default_resources ~alus ~mults ~buses ()
        in
        let flow = Csrtl_hls.Flow.compile ~resources ~scheduler program in
        Format.printf "%a@." Csrtl_hls.Sched.pp flow.Csrtl_hls.Flow.schedule;
        Format.printf "%a@." Csrtl_hls.Synth.pp_report
          flow.Csrtl_hls.Flow.binding;
        let verdicts = Csrtl_verify.Equiv.check_flow flow in
        List.iter
          (fun (o, v) ->
            Format.printf "output %s: %a@." o Csrtl_verify.Equiv.pp_verdict v)
          verdicts;
        match out with
        | None -> ()
        | Some _ ->
          write_output out
            (C.Rtm.to_string flow.Csrtl_hls.Flow.binding.Csrtl_hls.Synth.model))
  in
  let doc =
    "Run the HLS flow on a benchmark and emit the clock-free model."
  in
  Cmd.v (Cmd.info "hls" ~doc)
    Term.(const run $ program $ alus $ mults $ buses $ scheduler
          $ output_arg)

(* -- iks -------------------------------------------------------------------- *)

let iks_cmd =
  let farg name default doc =
    Arg.(value & opt float default & info [ name ] ~doc)
  in
  let run l1 l2 px py =
    let f = Csrtl_iks.Fixed.of_float in
    let t = Csrtl_iks.Ikprog.build ~l1:(f l1) ~l2:(f l2) ~px:(f px) ~py:(f py) in
    Format.printf "microprogram: %d words@."
      (List.length t.Csrtl_iks.Ikprog.program.Csrtl_iks.Microcode.instrs);
    let s = Csrtl_iks.Ikprog.solve_on_datapath ~l1:(f l1) ~l2:(f l2)
        ~px:(f px) ~py:(f py)
    in
    if not s.Csrtl_iks.Golden.reachable then begin
      Format.printf "target out of reach@.";
      exit exit_findings
    end;
    Format.printf "theta1 = %s rad@."
      (Csrtl_iks.Fixed.to_string s.Csrtl_iks.Golden.theta1);
    Format.printf "theta2 = %s rad@."
      (Csrtl_iks.Fixed.to_string s.Csrtl_iks.Golden.theta2);
    let bitexact =
      s.Csrtl_iks.Golden.theta1 = t.Csrtl_iks.Ikprog.expected.Csrtl_iks.Golden.theta1
      && s.Csrtl_iks.Golden.theta2
         = t.Csrtl_iks.Ikprog.expected.Csrtl_iks.Golden.theta2
    in
    Format.printf "bit-exact vs golden model: %b@." bitexact
  in
  let doc = "Solve 2-link inverse kinematics on the IKS datapath model." in
  Cmd.v (Cmd.info "iks" ~doc)
    Term.(const run
          $ farg "l1" 2.0 "Upper arm length."
          $ farg "l2" 1.5 "Forearm length."
          $ farg "px" 2.5 "Target x."
          $ farg "py" 1.0 "Target y.")

(* -- coverage ---------------------------------------------------------------- *)

let coverage_cmd =
  let run path =
    handle_errors (fun () ->
        let m = load_model path in
        Format.printf "%a@." C.Coverage.pp (C.Coverage.analyze m))
  in
  let doc =
    "Report bus/unit utilization, dead transfers, and unused registers."
  in
  Cmd.v (Cmd.info "coverage" ~doc) Term.(const run $ model_arg)

(* -- trace ------------------------------------------------------------------- *)

let trace_cmd =
  let from_step =
    Arg.(value & opt int 1 & info [ "from" ] ~docv:"STEP"
           ~doc:"First control step of the window.")
  in
  let to_step =
    Arg.(value & opt (some int) None
         & info [ "to" ] ~docv:"STEP" ~doc:"Last control step.")
  in
  let run path from_step to_step =
    handle_errors (fun () ->
        let m = load_model path in
        print_string (C.Waveform.phase_view ~from_step ?to_step m))
  in
  let doc =
    "Show resolved sink values phase by phase (conflicts are marked)      for a step window."
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ model_arg $ from_step $ to_step)

(* -- compact ----------------------------------------------------------------- *)

let compact_cmd =
  let run path out =
    handle_errors (fun () ->
        let m = load_model path in
        let before, after = C.Reschedule.compaction m in
        Format.printf "schedule: %d -> %d control steps@." before after;
        let m' = C.Reschedule.compact m in
        match out with
        | None -> print_string (C.Rtm.to_string m')
        | Some _ -> write_output out (C.Rtm.to_string m'))
  in
  let doc =
    "Re-embed the transfers into the earliest behaviour-preserving      control steps (same buses, units and registers)."
  in
  Cmd.v (Cmd.info "compact" ~doc) Term.(const run $ model_arg $ output_arg)

(* -- dot -------------------------------------------------------------------- *)

let dot_cmd =
  let structure =
    Arg.(value & flag
         & info [ "structure" ]
             ~doc:"Resources and transfer paths only (paper Fig. 3 style),                    without per-step edge labels.")
  in
  let run path structure out =
    handle_errors (fun () ->
        let m = load_model path in
        let text =
          if structure then C.Dot.structure_only m else C.Dot.to_dot m
        in
        write_output out text)
  in
  let doc = "Render the RT structure as Graphviz (dot) text." in
  Cmd.v (Cmd.info "dot" ~doc)
    Term.(const run $ model_arg $ structure $ output_arg)

(* -- selfcheck --------------------------------------------------------------- *)

let selfcheck_cmd =
  let run path =
    handle_errors (fun () ->
        let m = load_model path in
        let ok = ref true in
        let say name result detail =
          if not result then ok := false;
          Format.printf "  %-34s %s%s@." name
            (if result then "ok" else "FAILED")
            (if detail = "" then "" else " (" ^ detail ^ ")")
        in
        Format.printf "self-check of %s@." m.C.Model.name;
        (match C.Model.validate m with
         | [] -> say "validation" true ""
         | es -> say "validation" false (string_of_int (List.length es) ^ " errors"));
        let conflicts = C.Conflict.check m in
        say "static conflict analysis" (conflicts = [])
          (match conflicts with
           | [] -> ""
           | c :: _ -> C.Conflict.to_string c);
        let kr = C.Simulate.run m in
        let io = C.Interp.run m in
        say "kernel = interpreter"
          (C.Observation.equal kr.C.Simulate.obs io) "";
        say "delta-cycle law"
          (kr.C.Simulate.cycles = C.Simulate.expected_cycles m)
          (Printf.sprintf "%d cycles" kr.C.Simulate.cycles);
        (* VHDL loop *)
        (let text = Csrtl_vhdl.Emit.to_string m in
         match Csrtl_vhdl.Lint.check_source text with
         | Ok fs -> say "emitted VHDL lints clean" (Csrtl_vhdl.Lint.conformant fs) ""
         | Error msg -> say "emitted VHDL lints clean" false msg);
        (match
           Csrtl_vhdl.Extract.model_of_string (Csrtl_vhdl.Emit.to_string m)
         with
         | back ->
           let io' = C.Interp.run back in
           say "VHDL extract round trip"
             (C.Observation.equal
                { io with C.Observation.model_name = "x" }
                { io' with C.Observation.model_name = "x" })
             ""
         | exception Csrtl_vhdl.Extract.Extract_error msg ->
           say "VHDL extract round trip" false msg);
        (let tb = Csrtl_vhdl.Emit.self_checking_to_string m io in
         match Csrtl_vhdl.Elab.elaborate_and_run ~top:m.C.Model.name tb with
         | Ok t ->
           say "self-checking VHDL executes"
             (!(t.Csrtl_vhdl.Elab.failures) = [])
             (Printf.sprintf "%d assertion failures"
                (List.length !(t.Csrtl_vhdl.Elab.failures)))
         | Error msg -> say "self-checking VHDL executes" false msg);
        (* clocked loop, only for conflict-free models *)
        if conflicts = [] then begin
          (match Csrtl_clocked.Equiv.check_all_schemes m with
           | results ->
             say "clocked lowering (both schemes)"
               (List.for_all (fun (_, r) -> r = Ok ()) results)
               ""
           | exception Csrtl_clocked.Lower.Lowering_error msg ->
             say "clocked lowering (both schemes)" false msg);
          match Csrtl_verify.Lowcheck.check m with
          | Csrtl_verify.Lowcheck.Proved ->
            say "symbolic lowering proof" true "all inputs"
          | v ->
            say "symbolic lowering proof" false
              (Format.asprintf "%a" Csrtl_verify.Lowcheck.pp_verdict v)
          | exception Csrtl_clocked.Lower.Lowering_error msg ->
            say "symbolic lowering proof" false msg
        end;
        if not !ok then exit exit_findings)
  in
  let doc =
    "Run the full validation loop on a model: both simulators, the      delta-cycle law, VHDL round trips (lint, extract, interpreted      self-checking execution), and the clocked lowering with its      symbolic proof."
  in
  Cmd.v (Cmd.info "selfcheck" ~doc) Term.(const run $ model_arg)

(* -- inject ------------------------------------------------------------------ *)

let inject_cmd =
  let engine =
    let doc =
      "Engine for the faulted runs: $(b,kernel) (event kernel + \
       interpreter per fault, the reference path), $(b,compiled) \
       (faults batched in lockstep on the compiled schedule; faults \
       with no static schedule fall back to the kernel with a \
       diagnosis on stderr), or $(b,auto) (compiled when the fault \
       permits it, kernel otherwise).  The report is byte-identical \
       whichever engine computes it."
    in
    Arg.(value
         & opt
             (enum
                [ ("kernel", `Kernel); ("compiled", `Compiled);
                  ("auto", `Auto) ])
             `Auto
         & info [ "engine" ] ~doc)
  in
  let batch =
    let doc =
      "Lockstep batch size K for the compiled engine: K faulted \
       variants plus the golden run share one pass over the schedule.  \
       The report does not depend on it."
    in
    Arg.(value & opt int 32 & info [ "batch" ] ~docv:"K" ~doc)
  in
  let list_flag =
    Arg.(value & flag
         & info [ "list" ]
             ~doc:"List the enumerated faults with their indices and exit.")
  in
  let fault_idx =
    let doc =
      "Run only fault $(docv) (an index from $(b,--list)).  The exit code \
       classifies the outcome: 0 masked, 2 detected, 3 silently corrupted, \
       4 hung, 5 crashed or kernel/interpreter disagreement."
    in
    Arg.(value & opt (some int) None & info [ "fault" ] ~docv:"N" ~doc)
  in
  let limit =
    Arg.(value & opt (some int) None
         & info [ "limit" ] ~docv:"K"
             ~doc:"Subsample the fault list to at most $(docv) entries.")
  in
  let table =
    Arg.(value & flag
         & info [ "table" ] ~doc:"Print the per-fault table, not only the \
                                  campaign summary.")
  in
  let jobs =
    let doc =
      "Shard the campaign across $(docv) domains.  The report is \
       byte-identical at any job count; 0 means one per core."
    in
    Arg.(value & opt (some int) None & info [ "jobs" ] ~docv:"N" ~doc)
  in
  let chunks =
    let doc =
      "Split the sharded work into $(docv) pool chunks.  The report is \
       byte-identical at any chunk count; by default the campaign plans \
       the count from the measured per-fault cost."
    in
    Arg.(value & opt (some int) None & info [ "chunks" ] ~docv:"N" ~doc)
  in
  let journal =
    let doc =
      "Append each finished fault to the JSONL journal $(docv) (truncated \
       first), so a killed campaign can be picked up with $(b,--resume)."
    in
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let resume =
    let doc =
      "Resume a journaled campaign from $(docv): completed entries are \
       reused, torn or missing ones re-run (and appended).  The final \
       report is byte-identical to an uninterrupted run's."
    in
    Arg.(value & opt (some string) None
         & info [ "resume" ] ~docv:"FILE" ~doc)
  in
  let strict =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Also exit non-zero when any fault silently corrupts \
                   the observation.")
  in
  let budget =
    let doc =
      "Wall-clock budget per fault run in seconds; a run that overruns \
       twice classifies as hung instead of stalling the campaign."
    in
    Arg.(value & opt (some float) None
         & info [ "budget" ] ~docv:"SECONDS" ~doc)
  in
  let no_restore =
    Arg.(value & flag
         & info [ "no-restore" ]
             ~doc:"Re-simulate every fault run from step 0 instead of \
                   restoring the golden checkpoint at the fault's \
                   activation boundary (same classifications, slower).")
  in
  let artifact_cache =
    let doc =
      "Reuse the campaign's golden work across invocations via an \
       on-disk content-addressed store in $(docv) (created if absent): \
       the clean golden runs of both engines are keyed by (model \
       digest, config tag), so a warm campaign skips them entirely.  \
       Editing the model changes the key — stale hits are impossible.  \
       A corrupt or mismatched entry is diagnosed on stderr (rule \
       $(b,serve.artifact)) and rebuilt, never trusted.  The report \
       is byte-identical with or without the cache."
    in
    Arg.(value & opt (some string) None
         & info [ "artifact-cache" ] ~docv:"DIR" ~doc)
  in
  let run path engine batch list_flag fault_idx limit table jobs chunks
      journal resume strict budget no_restore artifact_cache =
    handle_errors (fun () ->
        (match limit with
         | Some k when k < 1 ->
           Format.eprintf "--limit must be at least 1 (got %d)@." k;
           exit exit_bad_input
         | _ -> ());
        if batch < 1 then begin
          Format.eprintf "--batch must be at least 1 (got %d)@." batch;
          exit exit_bad_input
        end;
        (match jobs with
         | Some j when j < 0 ->
           Format.eprintf "--jobs must be at least 0 (got %d)@." j;
           exit exit_bad_input
         | _ -> ());
        (match chunks with
         | Some c when c < 1 ->
           Format.eprintf "--chunks must be at least 1 (got %d)@." c;
           exit exit_bad_input
         | _ -> ());
        (match budget with
         | Some b when b <= 0. ->
           Format.eprintf "--budget must be positive (got %g)@." b;
           exit exit_bad_input
         | _ -> ());
        (match journal, resume with
         | Some _, Some _ ->
           Format.eprintf
             "--journal and --resume are mutually exclusive (--resume \
              already names the journal)@.";
           exit exit_bad_input
         | _ -> ());
        let m = load_model path in
        C.Model.validate_exn m;
        let faults = Csrtl_fault.Fault.enumerate ?limit m in
        (* under an explicit --engine compiled, say exactly which
           faults cannot take the compiled path and why — they run on
           the kernel instead of failing the campaign *)
        let diagnose_fallbacks fs =
          if engine = `Compiled then
            List.iter
              (fun f ->
                match
                  C.Sched.compilable
                    ~inject:(Csrtl_fault.Fault.to_inject f) m
                with
                | Ok () -> ()
                | Error why ->
                  Format.eprintf
                    "fault `%a' falls back to the kernel engine: %s@."
                    Csrtl_fault.Fault.pp f why)
              fs
        in
        if list_flag then
          List.iteri
            (fun i f ->
              Format.printf "%3d  %a@." i Csrtl_fault.Fault.pp f)
            faults
        else begin
          (* --artifact-cache: reuse the campaign's golden work across
             invocations.  The compiled plan is rebuilt (closures
             don't serialize; compiling is cheap); the golden
             simulations — the expensive part — load from the store
             when a valid entry exists, else run once and are saved.
             Chatter goes to stderr only: the report on stdout is
             byte-identical either way. *)
          let plan, golden =
            match artifact_cache with
            | None -> (None, None)
            | Some dir ->
              let limits = Diag.Limits.default in
              (try
                 if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
               with Unix.Unix_error _ -> ());
              let config = C.Simulate.default in
              let digest = C.Snapshot.digest_of_model m in
              let tag = Csrtl_fault.Journal.config_tag config in
              let file =
                Filename.concat dir
                  (Printf.sprintf "art-%s-%s.txt" digest tag)
              in
              let plan =
                match C.Batch.plan m with
                | p -> Some p
                | exception _ -> None
              in
              let diagnose why =
                prerr_string
                  (Diag.render_all
                     [ Diag.warning ~rule:"serve.artifact"
                         "ignoring artifact-cache entry %s: %s (rebuilding)"
                         file why ])
              in
              let rebuild () =
                let a = Csrtl_fault.Campaign.prepare ~config ?plan m in
                (try Csrtl_fault.Artifact.save file a
                 with Sys_error _ | Unix.Unix_error _ -> ());
                a
              in
              let a =
                if not (Sys.file_exists file) then rebuild ()
                else if
                  (* the Diag.Limits input-size guard, applied before
                     the entry is even read: an oversized cache file is
                     a diagnosis, not an OOM *)
                  (try (Unix.stat file).Unix.st_size
                   with Unix.Unix_error _ -> 0)
                  > limits.Diag.Limits.max_input_bytes
                then begin
                  diagnose
                    (Printf.sprintf "larger than the %d-byte input limit"
                       limits.Diag.Limits.max_input_bytes);
                  rebuild ()
                end
                else
                  match Csrtl_fault.Artifact.load file with
                  | Error why ->
                    diagnose why;
                    rebuild ()
                  | Ok a ->
                    (match Csrtl_fault.Artifact.validate m ~config a with
                     | Error why ->
                       diagnose why;
                       rebuild ()
                     | Ok () -> a)
              in
              (plan, Some a)
          in
          match fault_idx with
          | Some n ->
            (match List.nth_opt faults n with
             | None ->
               Format.eprintf "no fault #%d (the model enumerates %d)@." n
                 (List.length faults);
               exit exit_bad_input
             | Some f ->
               diagnose_fallbacks [ f ];
               let r =
                 Csrtl_fault.Campaign.run ~faults:[ f ] ?budget
                   ~restore:(not no_restore) ~engine ~batch ?plan ?golden m
               in
               let e = List.hd r.Csrtl_fault.Campaign.entries in
               Format.printf "%a@." Csrtl_fault.Campaign.pp_entry e;
               let agree =
                 Csrtl_fault.Campaign.outcomes_agree
                   e.Csrtl_fault.Campaign.kernel_outcome
                   e.Csrtl_fault.Campaign.interp_outcome
               in
               let code =
                 if not agree then 5
                 else
                   match e.Csrtl_fault.Campaign.kernel_outcome with
                   | Csrtl_fault.Campaign.Masked -> 0
                   | Csrtl_fault.Campaign.Detected _ -> 2
                   | Csrtl_fault.Campaign.Corrupted _ -> 3
                   | Csrtl_fault.Campaign.Hung _ -> 4
                   | Csrtl_fault.Campaign.Crashed _ -> 5
               in
               exit code)
          | None ->
            let restore = not no_restore in
            diagnose_fallbacks faults;
            let r =
              match journal, resume with
              | None, None ->
                (match jobs with
                 | None | Some 1 ->
                   Csrtl_fault.Campaign.run ~faults ?budget ~restore ~engine
                     ~batch ?plan ?golden m
                 | Some 0 ->
                   Csrtl_fault.Campaign.run_parallel ?chunks ~faults ?budget
                     ~restore ~engine ~batch ?plan ?golden m
                 | Some j ->
                   Csrtl_fault.Campaign.run_parallel ~jobs:j ?chunks ~faults
                     ?budget ~restore ~engine ~batch ?plan ?golden m)
              | _ ->
                let journal_path, resuming =
                  match journal, resume with
                  | Some f, None -> (f, false)
                  | None, Some f -> (f, true)
                  | _ -> assert false
                in
                (match
                   Csrtl_fault.Campaign.run_journaled
                     ?jobs:(match jobs with Some 0 -> None | j -> j)
                     ?chunks ~faults ?budget ~restore ~engine ~batch
                     ~warm:(fun () -> (plan, golden))
                     ~journal:journal_path ~resume:resuming m
                 with
                 | Ok (r, info) ->
                   (* progress chatter goes to stderr so the report on
                      stdout stays byte-identical to a clean run *)
                   Format.eprintf
                     "journal %s: %d reused, %d re-run, %d torn@."
                     journal_path info.Csrtl_fault.Campaign.reused
                     info.Csrtl_fault.Campaign.rerun
                     info.Csrtl_fault.Campaign.torn;
                   r
                 | Error msg ->
                   Format.eprintf "%s@." msg;
                   exit exit_bad_input)
            in
            (* the whole report in one buffered write, not a flush per
               table line *)
            print_string (Csrtl_fault.Campaign.render_report ~table r);
            flush stdout;
            if
              r.Csrtl_fault.Campaign.crashed > 0
              || r.Csrtl_fault.Campaign.disagreements > 0
              || r.Csrtl_fault.Campaign.law_violations > 0
            then exit 5
            else if r.Csrtl_fault.Campaign.hung > 0 then exit 4
            else if strict && r.Csrtl_fault.Campaign.corrupted > 0 then
              exit 3
        end)
  in
  let doc =
    "Run a single-fault injection campaign: every enumerated fault is \
     injected into both execution paths and classified as masked, \
     detected (with its exact conflict point), silently corrupting, or \
     hung.  The summary reports fault coverage and kernel/interpreter \
     agreement.  Campaign exit codes: 5 when any run crashed, the paths \
     disagree, or the delta-cycle law broke; 4 when any run hung; 3 \
     under $(b,--strict) when any fault silently corrupted; 0 otherwise."
  in
  Cmd.v
    (Cmd.info "inject" ~doc)
    Term.(const run $ model_arg $ engine $ batch $ list_flag $ fault_idx
          $ limit $ table $ jobs $ chunks $ journal $ resume $ strict
          $ budget $ no_restore $ artifact_cache)

(* -- info -------------------------------------------------------------------- *)

(* -- fuzz -------------------------------------------------------------------- *)

let fuzz_cmd =
  let module F = Csrtl_fuzz.Fuzz in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N"
             ~doc:"PRNG seed; the whole run is a pure function of it.")
  in
  let runs =
    Arg.(value & opt int 2000
         & info [ "runs" ] ~docv:"N" ~doc:"Number of inputs to execute.")
  in
  let targets =
    let doc =
      "Frontier to fuzz: $(b,vhdl), $(b,rtm), $(b,alg), $(b,frame), \
       $(b,journal), $(b,snapshot), $(b,artifact) or $(b,job) (repeatable; \
       default all)."
    in
    Arg.(value & opt_all string [] & info [ "target" ] ~docv:"TARGET" ~doc)
  in
  let out_dir =
    Arg.(value & opt string "_build/fuzz"
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Directory for shrunk crash reproducers.")
  in
  let budget =
    Arg.(value & opt float 5.0
         & info [ "budget" ] ~docv:"SECONDS"
             ~doc:"Supervision bound per input; exceeding it counts as a \
                   crash.")
  in
  let run seed runs targets out_dir budget =
    handle_errors (fun () ->
        if runs < 1 then die2 "--runs must be at least 1 (got %d)" runs;
        if budget <= 0. then
          die2 "--budget must be positive (got %g)" budget;
        let targets =
          match targets with
          | [] -> F.all_targets
          | names ->
            List.map
              (fun n ->
                match F.target_of_string n with
                | Some t -> t
                | None ->
                  die2
                    "unknown fuzz target %s \
                     (vhdl|rtm|alg|frame|journal|snapshot|artifact|job)"
                    n)
              names
        in
        let progress done_ crashes =
          Format.eprintf "fuzz: %d/%d inputs, %d distinct crash(es)@." done_
            runs crashes
        in
        let report =
          F.run ~budget ~out_dir ~progress ~seed ~runs targets
        in
        Format.printf "%a@." F.pp_report report;
        if report.F.crashes <> [] then exit exit_findings)
  in
  let doc =
    "Deterministically fuzz the untrusted-input frontier (parsers, \
     validation, one bounded simulation step).  Any escaped exception is \
     a bug: the input is shrunk, written under $(b,--out), and the exit \
     code is 1."
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(const run $ seed $ runs $ targets $ out_dir $ budget)

(* -- serve / request -------------------------------------------------------- *)

let socket_arg =
  Arg.(value & opt string "csrtl.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix socket path the daemon listens on.")

let serve_cmd =
  let module Serve = Csrtl_serve in
  let state_dir =
    Arg.(value & opt string "csrtl-serve-state"
         & info [ "state-dir" ] ~docv:"DIR"
             ~doc:"Directory for campaign journals (one per resume \
                   token); created if missing.  Surviving a restart is \
                   the point: journals here make crash recovery a \
                   resend.")
  in
  let jobs =
    Arg.(value & opt int 0
         & info [ "jobs" ] ~docv:"N"
             ~doc:"Domain-pool width of each campaign worker; 0 means \
                   one per core.")
  in
  let cache =
    Arg.(value & opt int 64
         & info [ "cache" ] ~docv:"N"
             ~doc:"Compile-cache capacity in models (bounded LRU).")
  in
  let plan_cache =
    Arg.(value & opt int 64
         & info [ "plan-cache" ] ~docv:"N"
             ~doc:"Plan-tier capacity (fault enumerations, keyed by \
                   structural digest); 0 disables the tier.")
  in
  let golden_cache =
    Arg.(value & opt int 64
         & info [ "golden-cache" ] ~docv:"N"
             ~doc:"Golden-tier capacity (golden observations, keyed \
                   by structural digest); 0 disables the tier.")
  in
  let max_pending =
    Arg.(value & opt int 4
         & info [ "max-pending" ] ~docv:"N"
             ~doc:"Campaigns running concurrently, at most 256; excess \
                   requests wait in the fair admission queue.")
  in
  let max_queue =
    Arg.(value & opt int 16
         & info [ "max-queue" ] ~docv:"N"
             ~doc:"Requests waiting in the admission queue (round-robin \
                   fair across clients); past this the daemon refuses \
                   with status 1 and a retry_after_ms hint.")
  in
  let max_restarts =
    Arg.(value & opt int 3
         & info [ "max-restarts" ] ~docv:"N"
             ~doc:"Crash-restarts per request (each resumes from the \
                   journal checkpoint, with capped exponential backoff) \
                   before refusing with rule serve.worker.")
  in
  let quarantine_after =
    Arg.(value & opt int 3
         & info [ "quarantine-after" ] ~docv:"N"
             ~doc:"Consecutive worker crashes per model that open its \
                   circuit breaker (rule serve.quarantined); 0 disables \
                   quarantine.")
  in
  let quarantine_cooloff_ms =
    Arg.(value & opt int 30_000
         & info [ "quarantine-cooloff-ms" ] ~docv:"MS"
             ~doc:"How long an open circuit breaker refuses a model \
                   before letting a probe request through.")
  in
  let deadline_ms =
    Arg.(value & opt (some int) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Server-wide wall-clock deadline per request; a \
                   campaign still running at the deadline drains to \
                   its journal and answers with a resume token.")
  in
  let max_request_bytes =
    Arg.(value & opt int (64 * 1024 * 1024)
         & info [ "max-request-bytes" ] ~docv:"N"
             ~doc:"Transport cap per request line; longer lines are \
                   discarded and refused with a diagnostic.")
  in
  let quiet =
    Arg.(value & flag
         & info [ "quiet" ] ~doc:"Suppress lifecycle notes on stderr.")
  in
  let run socket state_dir jobs cache plan_cache golden_cache max_pending
      max_queue
      max_restarts quarantine_after quarantine_cooloff_ms deadline_ms
      max_request_bytes quiet =
    handle_errors (fun () ->
        if cache < 1 then die2 "--cache must be at least 1 (got %d)" cache;
        if plan_cache < 0 then
          die2 "--plan-cache must be >= 0 (got %d)" plan_cache;
        if golden_cache < 0 then
          die2 "--golden-cache must be >= 0 (got %d)" golden_cache;
        if max_pending < 1 || max_pending > 256 then
          die2 "--max-pending must be between 1 and 256 (got %d)" max_pending;
        if max_queue < 0 then
          die2 "--max-queue must be >= 0 (got %d)" max_queue;
        if max_restarts < 0 then
          die2 "--max-restarts must be >= 0 (got %d)" max_restarts;
        if quarantine_after < 0 then
          die2 "--quarantine-after must be >= 0 (got %d)" quarantine_after;
        if quarantine_cooloff_ms < 0 then
          die2 "--quarantine-cooloff-ms must be >= 0 (got %d)"
            quarantine_cooloff_ms;
        if max_request_bytes < 1024 then
          die2 "--max-request-bytes must be at least 1024 (got %d)"
            max_request_bytes;
        (match deadline_ms with
         | Some ms when ms < 0 ->
           die2 "--deadline-ms must be >= 0 (got %d)" ms
         | _ -> ());
        (* chaos knob (docs/SERVICE.md): CSRTL_SERVE_KILL_NTH=n
           SIGKILLs every nth worker spawn, exercising the
           crash-restart path from outside.  Unset means disabled. *)
        let on_worker =
          match
            Option.bind
              (Sys.getenv_opt "CSRTL_SERVE_KILL_NTH")
              int_of_string_opt
          with
          | Some n when n > 0 ->
            let spawns = Atomic.make 0 in
            Some
              (fun ~pid ~token:_ ->
                if Atomic.fetch_and_add spawns 1 mod n = 0 then
                  try Unix.kill pid Sys.sigkill
                  with Unix.Unix_error _ -> ())
          | _ -> None
        in
        let config =
          { Serve.Server.engine =
              { Serve.Engine.default_config with
                state_dir; jobs; cache_capacity = cache;
                plan_cache_capacity = plan_cache;
                golden_cache_capacity = golden_cache; max_pending;
                max_queue; max_restarts;
                quarantine_threshold = quarantine_after;
                quarantine_cooloff_ms; on_worker;
                default_deadline_ms = deadline_ms };
            socket; max_request_bytes;
            log =
              (if quiet then fun _ -> ()
               else fun msg -> Format.eprintf "serve: %s@." msg) }
        in
        match Serve.Server.serve ~config () with
        | Ok () -> ()
        | Error msg -> die2 "%s" msg)
  in
  let doc =
    "Run the campaign-as-a-service daemon: line-delimited JSON over a \
     Unix socket (see docs/SERVICE.md).  Campaign responses are \
     byte-identical to offline $(b,csrtl inject) output; every \
     campaign is journaled under $(b,--state-dir) and resumable by \
     resending the request.  The daemon is crash-only: campaigns run \
     in supervised worker processes restarted from their journal on a \
     crash, admission is a bounded per-client-fair queue, and \
     SIGTERM/SIGINT drain in-flight campaigns to their journal \
     checkpoint and exit cleanly."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ socket_arg $ state_dir $ jobs $ cache $ plan_cache
          $ golden_cache $ max_pending
          $ max_queue $ max_restarts $ quarantine_after
          $ quarantine_cooloff_ms $ deadline_ms $ max_request_bytes
          $ quiet)

let request_cmd =
  let module Serve = Csrtl_serve in
  let model_pos =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"MODEL"
             ~doc:"Model file (.rtm) to run a campaign on.")
  in
  let ping =
    Arg.(value & flag
         & info [ "ping" ] ~doc:"Health-check the daemon and exit.")
  in
  let stats =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print daemon counters (requests, cache hits, drains) \
                   and exit.")
  in
  let shutdown =
    Arg.(value & flag
         & info [ "shutdown" ]
             ~doc:"Ask the daemon to drain in-flight campaigns and \
                   exit.")
  in
  let raw =
    Arg.(value & opt (some string) None
         & info [ "raw" ] ~docv:"LINE"
             ~doc:"Send $(docv) verbatim as one request frame and print \
                   the raw response lines — protocol debugging.")
  in
  let engine =
    Arg.(value
         & opt
             (enum
                [ ("kernel", `Kernel); ("compiled", `Compiled);
                  ("auto", `Auto) ])
             `Auto
         & info [ "engine" ]
             ~doc:"Engine for the faulted runs (as in $(b,csrtl \
                   inject)); the report is byte-identical whichever \
                   engine computes it.")
  in
  let batch =
    Arg.(value & opt int 32 & info [ "batch" ] ~docv:"K"
         ~doc:"Lockstep batch size K for the compiled engine.")
  in
  let limit =
    Arg.(value & opt (some int) None
         & info [ "limit" ] ~docv:"K"
             ~doc:"Subsample the fault list to at most $(docv) entries.")
  in
  let budget_ms =
    Arg.(value & opt (some int) None
         & info [ "budget-ms" ] ~docv:"MS"
             ~doc:"Per-fault wall-clock budget; overruns classify as \
                   hung.")
  in
  let deadline_ms =
    Arg.(value & opt (some int) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Whole-request deadline; on expiry the daemon drains \
                   the campaign to its journal and answers with a \
                   resume token (0 = drain immediately).")
  in
  let table =
    Arg.(value & flag
         & info [ "table" ]
             ~doc:"Include the per-fault table in the report.")
  in
  let jsonl =
    Arg.(value & flag
         & info [ "jsonl" ]
             ~doc:"Stream raw JSONL response frames (including per-fault \
                   entries) to stdout instead of the rendered report.")
  in
  let no_resume =
    Arg.(value & flag
         & info [ "no-resume" ]
             ~doc:"Recompute from scratch even when the daemon holds a \
                   journal for this request.")
  in
  let retry =
    Arg.(value & opt int 0
         & info [ "retry" ] ~docv:"N"
             ~doc:"Retry up to $(docv) times: a refused or missing \
                   socket (50 ms apart, for scripts racing the daemon's \
                   startup), and transient busy/quarantined/draining \
                   refusals (exponential backoff with jitter, honouring \
                   the daemon's retry_after_ms hint).")
  in
  let print_stats (s : Serve.Frame.stats) =
    Format.printf
      "requests %d | campaigns %d | drained %d | refused %d@."
      s.Serve.Frame.requests s.Serve.Frame.campaigns
      s.Serve.Frame.drained s.Serve.Frame.refused;
    Format.printf
      "workers: %d crashes, %d restarts, %d quarantined | queue: %d \
       active, %d waiting@."
      s.Serve.Frame.crashes s.Serve.Frame.restarts
      s.Serve.Frame.quarantined s.Serve.Frame.active
      s.Serve.Frame.queued;
    let tier name (t : Serve.Frame.tier) =
      Format.printf
        "cache %s: %d hits, %d misses, %d evictions (%d/%d entries)@."
        name t.Serve.Frame.hits t.Serve.Frame.misses
        t.Serve.Frame.evictions t.Serve.Frame.entries
        t.Serve.Frame.capacity
    in
    tier "model" s.Serve.Frame.model;
    tier "plan" s.Serve.Frame.plan;
    tier "golden" s.Serve.Frame.golden
  in
  let run socket model_pos ping stats shutdown raw engine batch limit
      budget_ms deadline_ms table jsonl no_resume retry =
    handle_errors (fun () ->
        Random.self_init ();
        let connect_or_die () =
          match Serve.Client.connect ~retries:retry socket with
          | Ok c -> c
          | Error msg ->
            Format.eprintf "error: %s@." msg;
            exit exit_bad_input
        in
        (* a transient refusal (busy/quarantined/draining) with retry
           budget left unwinds to the resend loop instead of exiting *)
        let exception Retry_refused of int option in
        let rec drain_responses ?(can_retry = false) ~conn ~jsonl ~on_report
            () =
          match Serve.Client.next conn with
          | None ->
            Format.eprintf
              "error: the daemon closed the connection mid-request; any \
               completed faults are journaled and resumable@.";
            exit exit_bug
          | Some (raw_line, decoded) ->
            (match decoded with
             | Error diags ->
               prerr_string (Diag.render_all diags);
               exit exit_bug
             | Ok resp ->
               (match resp with
                | Serve.Frame.Pong { version } ->
                  Format.printf "pong %s@." version;
                  exit 0
                | Serve.Frame.Stats_reply s ->
                  print_stats s;
                  exit 0
                | Serve.Frame.Bye ->
                  Format.printf "bye@.";
                  exit 0
                | Serve.Frame.Started
                    { token; total; cached; plan_cached; golden_cached } ->
                  let tags =
                    (if cached then [ "model cached" ] else [])
                    @ (if plan_cached then [ "plan cached" ] else [])
                    @ if golden_cached then [ "golden cached" ] else []
                  in
                  Format.eprintf "request %s: %d fault(s)%s@." token total
                    (match tags with
                     | [] -> ""
                     | ts -> ", " ^ String.concat ", " ts);
                  drain_responses ~can_retry ~conn ~jsonl ~on_report ()
                | Serve.Frame.Queued { position; retry_after_ms } ->
                  if jsonl then print_endline raw_line;
                  Format.eprintf
                    "queued at position %d (estimated wait %d ms)@."
                    position retry_after_ms;
                  drain_responses ~can_retry ~conn ~jsonl ~on_report ()
                | Serve.Frame.Artifact _ ->
                  (* an internal worker→daemon frame; a daemon never
                     sends one here — tolerate and drain on *)
                  drain_responses ~can_retry ~conn ~jsonl ~on_report ()
                | Serve.Frame.Entry _ ->
                  if jsonl then print_endline raw_line;
                  drain_responses ~can_retry ~conn ~jsonl ~on_report ()
                | Serve.Frame.Report
                    { status; reused; rerun; torn; text; _ } ->
                  if jsonl then print_endline raw_line
                  else on_report text;
                  Format.eprintf "journal: %d reused, %d re-run, %d torn@."
                    reused rerun torn;
                  exit status
                | Serve.Frame.Drained
                    { status; token; completed; total; reason } ->
                  if jsonl then print_endline raw_line
                  else
                    Format.printf "drained (%s); resume token %s@." reason
                      token;
                  Format.eprintf
                    "campaign drained after %d/%d fault(s); resend the \
                     request to resume@."
                    completed total;
                  exit status
                | Serve.Frame.Refused { status; diags; _ } ->
                  (match
                     (if can_retry then Serve.Client.retryable resp
                      else None)
                   with
                   | Some hint -> raise (Retry_refused hint)
                   | None ->
                     prerr_string (Diag.render_all diags);
                     exit status)))
        in
        let send_or_die r =
          match r with
          | Ok () -> ()
          | Error msg ->
            Format.eprintf "error: %s@." msg;
            exit exit_bug
        in
        let conn = connect_or_die () in
        match raw with
        | Some line ->
          send_or_die (Serve.Client.send_raw conn line);
          (* raw mode prints whatever comes back, undecoded *)
          let rec raw_loop () =
            match Serve.Client.next conn with
            | None -> exit exit_bug
            | Some (raw_line, decoded) ->
              print_endline raw_line;
              (match decoded with
               | Ok
                   ( Serve.Frame.Started _ | Serve.Frame.Entry _
                   | Serve.Frame.Queued _ ) ->
                 raw_loop ()
               | Ok
                   ( Serve.Frame.Report { status; _ }
                   | Serve.Frame.Drained { status; _ }
                   | Serve.Frame.Refused { status; _ } ) -> exit status
               | Ok _ -> exit 0
               | Error _ -> exit exit_bug)
          in
          raw_loop ()
        | None ->
          match
            List.assoc_opt true
              [ (ping, Serve.Frame.Ping); (stats, Serve.Frame.Stats);
                (shutdown, Serve.Frame.Shutdown) ]
          with
          | Some control ->
            send_or_die (Serve.Client.send conn control);
            drain_responses ~conn ~jsonl ~on_report:print_string ()
          | None ->
            match model_pos with
            | None ->
              die2
                "a MODEL argument is required (or one of --ping, --stats, \
                 --shutdown, --raw)"
            | Some path ->
              if
                Filename.check_suffix path ".vhd"
                || Filename.check_suffix path ".vhdl"
              then
                die2
                  "serve requests carry .rtm text; convert VHDL first \
                   (csrtl import-vhdl)";
              let model = read_file path in
              let inject =
                Serve.Frame.Inject
                  { Serve.Frame.model; engine; batch; limit; budget_ms;
                    deadline_ms; table; stream = jsonl;
                    resume = not no_resume }
              in
              (* request-level retry: transient refusals (busy, draining,
                 quarantined) back off with jitter and resend on a fresh
                 connection, honouring the daemon's retry_after hint *)
              let rec attempt conn n =
                send_or_die (Serve.Client.send conn inject);
                match
                  drain_responses ~can_retry:(n < retry) ~conn ~jsonl
                    ~on_report:print_string ()
                with
                | () -> ()
                | exception Retry_refused hint ->
                  Serve.Client.close conn;
                  let d =
                    Serve.Client.backoff_delay ~attempt:n
                      ~retry_after_ms:hint (fun () -> Random.float 1.0)
                  in
                  Format.eprintf
                    "daemon refused transiently; retrying in %d ms \
                     (attempt %d/%d)@."
                    (int_of_float (d *. 1000.))
                    (n + 1) retry;
                  Unix.sleepf d;
                  attempt (connect_or_die ()) (n + 1)
              in
              attempt conn 0)
  in
  let doc =
    "Send one request to a running $(b,csrtl serve) daemon.  Campaign \
     reports are byte-identical to offline $(b,csrtl inject) output for \
     the same model and options.  Exit status follows the wire status \
     code: 0 clean, 1 findings/busy/drained, 2 bad input, 3 daemon or \
     transport failure."
  in
  Cmd.v (Cmd.info "request" ~doc)
    Term.(const run $ socket_arg $ model_pos $ ping $ stats $ shutdown
          $ raw $ engine $ batch $ limit $ budget_ms $ deadline_ms $ table
          $ jsonl $ no_resume $ retry)

let chaos_cmd =
  let module Ch = Csrtl_chaos.Chaos in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N"
             ~doc:"PRNG seed; the whole fault sequence is a pure function \
                   of it.")
  in
  let runs =
    Arg.(value & opt int 200
         & info [ "runs" ] ~docv:"N"
             ~doc:"Number of seeded failure scenarios to inject.")
  in
  let quiet =
    Arg.(value & flag
         & info [ "quiet" ] ~doc:"Suppress per-scenario progress lines.")
  in
  let run seed runs quiet =
    handle_errors (fun () ->
        if runs < 1 then die2 "--runs must be at least 1 (got %d)" runs;
        let log =
          if quiet then None
          else Some (fun line -> Format.eprintf "chaos: %s@." line)
        in
        let s = Ch.run ?log ~seed ~runs () in
        Format.printf
          "chaos: %d scenario(s) | %d worker kill(s), %d torn tail(s), %d \
           ENOSPC, %d EIO, %d frame delay(s)@."
          s.Ch.runs s.Ch.kills s.Ch.torn s.Ch.enospc s.Ch.eio s.Ch.delays;
        Format.printf
          "chaos: supervisor observed %d crash(es), %d restart(s); %d \
           healthy concurrent campaign(s) unharmed@."
          s.Ch.crashes s.Ch.restarts s.Ch.healthy;
        match s.Ch.violations with
        | [] ->
          Format.printf
            "chaos: every recovered report byte-identical to offline \
             inject@."
        | vs ->
          List.iter (fun v -> Format.eprintf "violation: %s@." v) vs;
          Format.eprintf "chaos: %d invariant violation(s) (seed %d)@."
            (List.length vs) seed;
          exit exit_bug)
  in
  let doc =
    "Deterministic chaos harness for the crash-only daemon: drive a real \
     serve engine and its workers through seeded failures (worker SIGKILL, \
     torn journal tails, ENOSPC/EIO on journal writes, delayed frames) \
     and assert every recovered report is byte-identical to offline \
     $(b,csrtl inject) output and every scheduled journal fault fired \
     in a worker.  Exit code 3 on any violation."
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(const run $ seed $ runs $ quiet)

let info_cmd =
  let run path =
    handle_errors (fun () ->
        let m = load_model path in
        Format.printf "%a@." C.Model.pp m;
        let legs, selects = C.Model.all_legs m in
        Format.printf
          "%d registers, %d units, %d buses, %d transfers -> %d TRANS \
           instances + %d op selections@."
          (List.length m.C.Model.registers)
          (List.length m.C.Model.fus)
          (List.length m.C.Model.buses)
          (List.length m.C.Model.transfers)
          (List.length legs) (List.length selects);
        Format.printf "expected simulation cycles: %d@."
          (C.Simulate.expected_cycles m))
  in
  let doc = "Print a model summary." in
  Cmd.v (Cmd.info "info" ~doc) Term.(const run $ model_arg)

let () =
  (* a serve daemon's campaign workers re-execute this binary as
     [csrtl worker]: hidden from the command group and --help *)
  Csrtl_serve.Engine.worker_entry ();
  let doc = "clock-free register-transfer-level models (DATE'98)" in
  let info = Cmd.info "csrtl" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ sim_cmd; check_cmd; export_cmd; import_cmd; lint_cmd;
            run_vhdl_cmd; lower_cmd; compact_cmd; trace_cmd; coverage_cmd;
            selfcheck_cmd; hls_cmd; iks_cmd; dot_cmd; inject_cmd;
            serve_cmd; request_cmd; chaos_cmd; fuzz_cmd; info_cmd ]))
