(* csrtl benchmark harness.

   Two parts:
   - the experiment report (bench/report.ml): regenerates every
     figure, table and claim of the paper's evaluation as printed
     tables (DESIGN.md experiments F1-F3, T1, C1-C11);
   - Bechamel micro-benchmarks: one Test.make per measured table
     row family, timing the competing execution paths.

   Run with: dune exec bench/main.exe            (report + benches)
             dune exec bench/main.exe -- report  (report only)
             dune exec bench/main.exe -- bench   (benches only)
             dune exec bench/main.exe -- smoke   (C10/C12 at tiny sizes)
             dune exec bench/main.exe -- bench-json [OUT] [smoke]
                                        (emit the C12 matrix as JSON)
             dune exec bench/main.exe -- json-check FILE
                                        (schema-validate such a file)
             dune exec bench/main.exe -- scaling-check
                                        (gate: 2-worker campaign efficiency
                                         >= 0.6 with byte-identical reports) *)

open Bechamel
open Toolkit
module C = Csrtl_core

let chain64 = Workloads.chain 64
let chain64_lowered = Csrtl_clocked.Lower.lower chain64
let fig1 = C.Builder.fig1 ()

let ik_model =
  let f = Csrtl_iks.Fixed.of_float in
  let t =
    Csrtl_iks.Ikprog.build ~l1:(f 2.0) ~l2:(f 1.5) ~px:(f 2.5) ~py:(f 1.0)
  in
  Csrtl_iks.Translate.to_model ~inputs:t.Csrtl_iks.Ikprog.inputs
    ~reg_init:t.Csrtl_iks.Ikprog.reg_init t.Csrtl_iks.Ikprog.program

let ik_program =
  let f = Csrtl_iks.Fixed.of_float in
  Csrtl_iks.Ikprog.build ~l1:(f 2.0) ~l2:(f 1.5) ~px:(f 2.5) ~py:(f 1.0)

let tests =
  [ (* F1/F2: the clock-free discipline itself *)
    Test.make ~name:"fig1/kernel"
      (Staged.stage (fun () -> ignore (C.Simulate.run fig1)));
    Test.make ~name:"fig2/controller-1000-steps"
      (Staged.stage (fun () ->
           ignore (C.Simulate.run (Workloads.controller_only 1000))));
    (* C3: speed - same 64-transfer chain on each execution path *)
    Test.make ~name:"speed/clock-free-kernel"
      (Staged.stage (fun () -> ignore (C.Simulate.run chain64)));
    (* C10: the static-schedule arena's golden row (K = 0), plan and
       arena reused across runs *)
    (let plan = C.Batch.plan chain64 in
     Test.make ~name:"speed/phase-compiled"
       (Staged.stage (fun () -> ignore (C.Batch.golden_with plan []))));
    Test.make ~name:"speed/interpreter"
      (Staged.stage (fun () -> ignore (C.Interp.run chain64)));
    Test.make ~name:"speed/handshake"
      (Staged.stage (fun () ->
           ignore (Csrtl_handshake.Hs_model.run chain64)));
    Test.make ~name:"speed/clocked-event-driven"
      (Staged.stage (fun () ->
           ignore
             (Csrtl_clocked.Kernel_sim.run
                ~inputs:(Csrtl_clocked.Lower.input_function chain64_lowered)
                chain64_lowered.Csrtl_clocked.Lower.net
                ~cycles:(Csrtl_clocked.Lower.cycles_needed chain64_lowered))));
    Test.make ~name:"speed/clocked-levelized"
      (Staged.stage (fun () ->
           ignore (Csrtl_clocked.Lower.run chain64_lowered)));
    (* C4: the lowering transformation itself *)
    Test.make ~name:"lowering/chain64"
      (Staged.stage (fun () ->
           ignore (Csrtl_clocked.Lower.lower chain64)));
    (* C5: HLS scheduling *)
    Test.make ~name:"hls/diffeq-compile"
      (Staged.stage (fun () ->
           ignore (Csrtl_hls.Flow.compile Csrtl_hls.Examples.diffeq)));
    Test.make ~name:"hls/diffeq-fds-compile"
      (Staged.stage (fun () ->
           ignore
             (Csrtl_hls.Flow.compile ~scheduler:`Force_directed
                ~resources:(Csrtl_hls.Sched.default_resources ~buses:4 ())
                Csrtl_hls.Examples.diffeq)));
    Test.make ~name:"hls/fir16-compile"
      (Staged.stage (fun () ->
           ignore
             (Csrtl_hls.Flow.compile
                ~resources:(Csrtl_hls.Sched.default_resources ~mults:2 ())
                (Csrtl_hls.Examples.fir 16))));
    (* C7: the proving procedure *)
    Test.make ~name:"verify/diffeq-symbolic"
      (Staged.stage (fun () ->
           ignore
             (Csrtl_verify.Equiv.check_flow
                (Csrtl_hls.Flow.compile Csrtl_hls.Examples.diffeq))));
    (* T1/F3: the microcode translator and the full IKS run *)
    Test.make ~name:"iks/translate-microprogram"
      (Staged.stage (fun () ->
           ignore
             (Csrtl_iks.Translate.to_model
                ~inputs:ik_program.Csrtl_iks.Ikprog.inputs
                ~reg_init:ik_program.Csrtl_iks.Ikprog.reg_init
                ik_program.Csrtl_iks.Ikprog.program)));
    Test.make ~name:"iks/full-ik-interp"
      (Staged.stage (fun () -> ignore (C.Interp.run ik_model)));
    (* C8: VHDL emission + extraction *)
    Test.make ~name:"vhdl/fig1-roundtrip"
      (Staged.stage (fun () ->
           ignore
             (Csrtl_vhdl.Extract.model_of_string
                (Csrtl_vhdl.Emit.to_string fig1))));
    (* C6: one consistency check *)
    Test.make ~name:"consist/random-model-check"
      (Staged.stage (fun () ->
           ignore (Csrtl_verify.Consist.check
                     (Csrtl_verify.Consist.random_model 11))));
    (* ablations (DESIGN.md section 5) *)
    Test.make ~name:"ablate/keyed+incremental"
      (Staged.stage (fun () ->
           ignore
             (C.Simulate.run ~wait_impl:`Keyed ~resolution_impl:`Incremental
                chain64)));
    Test.make ~name:"ablate/keyed+fold"
      (Staged.stage (fun () ->
           ignore
             (C.Simulate.run ~wait_impl:`Keyed ~resolution_impl:`Fold
                chain64)));
    Test.make ~name:"ablate/predicate+incremental"
      (Staged.stage (fun () ->
           ignore
             (C.Simulate.run ~wait_impl:`Predicate
                ~resolution_impl:`Incremental chain64)));
    Test.make ~name:"ablate/predicate+fold"
      (Staged.stage (fun () ->
           ignore
             (C.Simulate.run ~wait_impl:`Predicate ~resolution_impl:`Fold
                chain64)));
    (* transformations and analyses *)
    Test.make ~name:"transform/compact-chain64"
      (Staged.stage (fun () -> ignore (C.Reschedule.compact chain64)));
    Test.make ~name:"analysis/coverage-chain64"
      (Staged.stage (fun () -> ignore (C.Coverage.analyze chain64)));
    Test.make ~name:"analysis/conflict-check-chain64"
      (Staged.stage (fun () -> ignore (C.Conflict.check chain64)));
    (* clock schemes *)
    Test.make ~name:"scheme/one-cycle-levelized"
      (Staged.stage (fun () ->
           ignore
             (Csrtl_clocked.Lower.run
                (Csrtl_clocked.Lower.lower
                   ~scheme:Csrtl_clocked.Lower.One_cycle_per_step chain64))));
    Test.make ~name:"scheme/two-phase-levelized"
      (Staged.stage (fun () ->
           ignore
             (Csrtl_clocked.Lower.run
                (Csrtl_clocked.Lower.lower
                   ~scheme:Csrtl_clocked.Lower.Two_phase chain64)))) ]

let run_benches () =
  Format.printf "@.==== Bechamel micro-benchmarks ====@.@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:true ~quota:(Time.second 0.3) ()
  in
  let grouped = Test.make_grouped ~name:"csrtl" ~fmt:"%s/%s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  Format.printf "%-42s %16s %10s@." "benchmark" "ns/run" "r^2";
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some [ e ] -> Printf.sprintf "%16.1f" e
        | Some _ | None -> Printf.sprintf "%16s" "-"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Printf.sprintf "%10.4f" r
        | None -> Printf.sprintf "%10s" "-"
      in
      Format.printf "%-42s %s %s@." name est r2)
    rows

let () =
  let argv = Sys.argv in
  let mode = if Array.length argv > 1 then argv.(1) else "all" in
  match mode with
  | "smoke" ->
    Report.claim_multicore ~smoke:true ();
    Report.claim_batch ~smoke:true ()
  | "bench-json" ->
    let rest = Array.to_list (Array.sub argv 2 (Array.length argv - 2)) in
    let smoke = List.mem "smoke" rest in
    let out =
      match List.filter (fun a -> a <> "smoke") rest with
      | o :: _ -> o
      | [] -> "BENCH_batch.json"
    in
    Report.bench_json ~smoke ~out ()
  | "serve-json" ->
    let rest = Array.to_list (Array.sub argv 2 (Array.length argv - 2)) in
    let smoke = List.mem "smoke" rest in
    let out =
      match List.filter (fun a -> a <> "smoke") rest with
      | o :: _ -> o
      | [] -> "BENCH_serve.json"
    in
    Report.serve_json ~smoke ~out ()
  | "json-check-serve" ->
    if Array.length argv < 3 then begin
      prerr_endline "usage: main.exe json-check-serve FILE";
      exit 2
    end;
    (match Report.json_check_serve argv.(2) with
     | Ok msg -> print_endline msg
     | Error e ->
       Printf.eprintf "%s: schema check FAILED: %s\n" argv.(2) e;
       exit 1)
  | "scaling-check" ->
    (match Report.scaling_check () with
     | Ok () -> ()
     | Error e ->
       Printf.eprintf "%s\n" e;
       exit 1)
  | "json-check" ->
    if Array.length argv < 3 then begin
      prerr_endline "usage: main.exe json-check FILE";
      exit 2
    end;
    (match Report.json_check argv.(2) with
     | Ok msg -> print_endline msg
     | Error e ->
       Printf.eprintf "%s: schema check FAILED: %s\n" argv.(2) e;
       exit 1)
  | _ ->
    if mode = "report" || mode = "all" then Report.run ();
    if mode = "bench" || mode = "all" then run_benches ()
