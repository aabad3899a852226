(* Differential lockdown of the batched lockstep executor: for every
   compilable fault the four realizations — event kernel, interpreter,
   per-variant compiled overlay, batched lockstep — must agree on the
   full observation, the batched cycle prediction must equal what the
   kernel actually ran, a variant retired early must provably be
   masked, and a variant stopped early must be detected at the
   kernel's diagnosis point.  The campaign suites then lock report and
   journal bytes on top of this. *)

open Csrtl_core
module Consist = Csrtl_verify.Consist
module Fault = Csrtl_fault.Fault
module Campaign = Csrtl_fault.Campaign

let agree name fault a b =
  if not (Observation.equal a b) then
    Alcotest.failf "%s disagree on %s:@.diff: %s" name
      (Fault.to_string fault)
      (String.concat "; " (Observation.diff a b))

(* A batched verdict against the kernel's full run of the same fault: a
   finished or retired variant must reproduce the kernel's observation
   (returned for further comparison); a detected one must name the
   (step, phase, sink) at which that run, classified against the
   kernel's golden run, is [Detected]. *)
let verdict_agrees name f ~golden_batch ~golden (r : Batch.result)
    kernel_obs =
  match r.Batch.verdict with
  | Batch.Finished o ->
    agree name f o kernel_obs;
    (* early detection leaves a finished row no conflict the golden row
       lacks — what lets a campaign classify it by its witness alone *)
    List.iter
      (fun ((s, p, n) as c) ->
        if not (List.mem c golden_batch.Observation.conflicts) then
          Alcotest.failf "%s: %s finished with conflict (%d, %s) on %s \
                          the golden run lacks"
            name (Fault.to_string f) s (Phase.to_string p) n)
      o.Observation.conflicts;
    Some o
  | Batch.Converged _ ->
    agree name f golden_batch kernel_obs;
    Some golden_batch
  | Batch.Detected (s, p, n) ->
    (match Campaign.classify ~golden kernel_obs with
     | Campaign.Detected (s', p', n')
       when s = s' && Phase.equal p p' && String.equal n n' -> ()
     | o ->
       Alcotest.failf "%s: batch detected %s at (%d, %s) on %s, kernel \
                       classifies %a"
         name (Fault.to_string f) s (Phase.to_string p) n
         Campaign.pp_outcome o);
    None

let compilable_faults m =
  List.filter
    (fun f -> Compiled.compilable ~inject:(Fault.to_inject f) m = Ok ())
    (Fault.enumerate m)

(* One model, all its compilable faults, all four engines from step 0
   — plus the kernel resumed from the fault's golden boundary, which
   the batched join must reproduce byte-for-byte. *)
let four_way (m : Model.t) =
  let faults = compilable_faults m in
  if faults <> [] then begin
    let golden_compiled = Compiled.run (Compiled.of_model m) in
    let specs =
      List.map
        (fun f ->
          { Batch.inject = Fault.to_inject f; join = 0;
            settle = Fault.last_step m f })
        faults
    in
    let golden_batch, results = Batch.golden m specs in
    let golden = (Simulate.run_cfg m).Simulate.obs in
    agree "batch-golden/compiled-golden"
      (List.hd faults) golden_batch golden_compiled;
    List.iter2
      (fun f (r : Batch.result) ->
        let inj = Fault.to_inject f in
        let kernel = Simulate.run_cfg ~inject:inj m in
        (* a detected variant has no observation: the other engines
           are then held to the kernel's *)
        let name, reference =
          match
            verdict_agrees "batch/kernel" f ~golden_batch ~golden r
              kernel.Simulate.obs
          with
          | Some batched -> ("batch", batched)
          | None -> ("kernel", kernel.Simulate.obs)
        in
        agree (name ^ "/interp") f reference (Interp.run ~inject:inj m);
        agree (name ^ "/compiled-overlay") f reference
          (Compiled.run (Compiled.of_model ~inject:inj m));
        if r.Batch.cycles <> kernel.Simulate.cycles then
          Alcotest.failf "cycle law on %s: batch predicts %d, kernel ran %d"
            (Fault.to_string f) r.Batch.cycles kernel.Simulate.cycles)
      faults results
  end

(* Joined variants: batch with join at the fault's golden boundary
   must equal the kernel resumed from the golden snapshot there. *)
let join_parity (m : Model.t) =
  let faults =
    List.filter
      (fun f -> Campaign.boundary_of_fault m f >= 1)
      (compilable_faults m)
  in
  if faults <> [] then begin
    let specs =
      List.map
        (fun f ->
          { Batch.inject = Fault.to_inject f;
            join = Campaign.boundary_of_fault m f;
            settle = Fault.last_step m f })
        faults
    in
    let golden_batch, results = Batch.golden m specs in
    let golden = (Simulate.run_cfg m).Simulate.obs in
    let snap_cache = Hashtbl.create 8 in
    let snapshot b =
      match Hashtbl.find_opt snap_cache b with
      | Some s -> s
      | None ->
        let s = Simulate.snapshot_at ~step:b m in
        Hashtbl.replace snap_cache b s;
        s
    in
    List.iter2
      (fun f (r : Batch.result) ->
        let inj = Fault.to_inject f in
        let b = Campaign.boundary_of_fault m f in
        let kernel =
          Simulate.resume ~inject:inj ~from:(snapshot (min b m.Model.cs_max)) m
        in
        ignore
          (verdict_agrees "joined-batch/kernel-resume" f ~golden_batch
             ~golden r kernel.Simulate.obs);
        if r.Batch.cycles <> kernel.Simulate.cycles then
          Alcotest.failf
            "resumed cycle law on %s: batch predicts %d, kernel ran %d"
            (Fault.to_string f) r.Batch.cycles kernel.Simulate.cycles)
      faults results
  end

(* Early verdicts on campaign-shaped specs (joined at the fault's
   boundary), each checked against the kernel's full run classified
   against its golden: [check] sees the fault, the verdict and that
   classification. *)
let early_verdicts (m : Model.t) check =
  let faults = compilable_faults m in
  if faults <> [] then begin
    let specs =
      List.map
        (fun f ->
          { Batch.inject = Fault.to_inject f;
            join = Campaign.boundary_of_fault m f;
            settle = Fault.last_step m f })
        faults
    in
    let golden = (Simulate.run_cfg m).Simulate.obs in
    List.iter2
      (fun f (r : Batch.result) ->
        let classified () =
          let inj = Fault.to_inject f in
          Campaign.classify ~golden (Simulate.run_cfg ~inject:inj m).Simulate.obs
        in
        check f r.Batch.verdict classified)
      faults (Batch.run m specs)
  end

(* A retired variant claims its observation equals the golden one —
   so both engines must classify it masked. *)
let retirement_sound m =
  early_verdicts m (fun f verdict classified ->
      match verdict with
      | Batch.Finished _ | Batch.Detected _ -> ()
      | Batch.Converged _ ->
        (match classified () with
         | Campaign.Masked -> ()
         | o ->
           Alcotest.failf "retired %s but kernel classifies %a"
             (Fault.to_string f) Campaign.pp_outcome o))

(* A variant stopped early claims the full run is detected at the
   verdict's point — and one that ran to the end must not be a missed
   detection. *)
let detection_sound m =
  early_verdicts m (fun f verdict classified ->
      match (verdict, classified ()) with
      | Batch.Detected (s, p, n), Campaign.Detected (s', p', n')
        when s = s' && Phase.equal p p' && String.equal n n' -> ()
      | Batch.Detected (s, p, n), o ->
        Alcotest.failf "stopped %s as detected at (%d, %s) on %s but kernel \
                        classifies %a"
          (Fault.to_string f) s (Phase.to_string p) n Campaign.pp_outcome o
      | (Batch.Finished _ | Batch.Converged _), Campaign.Detected _ ->
        Alcotest.failf "%s ran past its detection point"
          (Fault.to_string f)
      | (Batch.Finished _ | Batch.Converged _), _ -> ())

let test_fig1 () = four_way (Builder.fig1 ())
let test_fig1_join () = join_parity (Builder.fig1 ())
let test_fig1_retire () = retirement_sound (Builder.fig1 ())
let test_fig1_detect () = detection_sound (Builder.fig1 ())

(* The dispatch counts of two campaigns, pinned: retirement counts
   only re-converged variants (the benchmark probe reads it as the
   retire ratio), early detection only the ones stopped at a new
   conflict — every detected batched fault on these models. *)
let test_early_counts () =
  List.iter
    (fun ((m : Model.t), retired, detected) ->
      let r, st = Campaign.run_with_stats ~jobs:1 m in
      let name = m.Model.name in
      Alcotest.(check int) (name ^ " retired early") retired
        st.Campaign.retired_early;
      Alcotest.(check int) (name ^ " detected early") detected
        st.Campaign.detected_early;
      Alcotest.(check int) (name ^ " every detection early")
        r.Campaign.detected st.Campaign.detected_early)
    [ (Builder.fig1 (), 2, 15); (Chain_model.chain 24, 2, 107) ]

(* ---- campaign determinism: the batched path is invisible -------- *)

let full_report_string (r : Campaign.report) =
  Format.asprintf "%a@.%a" Campaign.pp_report r
    (Format.pp_print_list Campaign.pp_entry)
    r.Campaign.entries

(* One reference campaign on the kernel path; every (engine, jobs,
   batch) combination must print the same bytes. *)
let campaign_invariance (m : Model.t) =
  let reference = full_report_string (Campaign.run ~engine:`Kernel m) in
  List.iter
    (fun (engine, name) ->
      let seq = full_report_string (Campaign.run ~engine m) in
      if seq <> reference then
        Alcotest.failf "sequential %s report differs from kernel path" name)
    [ (`Auto, "auto"); (`Compiled, "compiled") ];
  List.iter
    (fun batch ->
      List.iter
        (fun jobs ->
          let r =
            full_report_string
              (Campaign.run_parallel ~jobs ~engine:`Auto ~batch m)
          in
          if r <> reference then
            Alcotest.failf "report differs at jobs=%d batch=%d" jobs batch)
        [ 1; 2 ])
    [ 1; 8; 64 ]

let test_invariance () = campaign_invariance (Builder.fig1 ())

let prop_invariance =
  QCheck.Test.make ~name:"report bytes invariant under engine/jobs/batch"
    ~count:6
    QCheck.(int_range 0 100_000)
    (fun seed ->
      campaign_invariance (Consist.random_model seed);
      true)

(* An oscillator in the fault list must classify Hung on the kernel
   path without disturbing the batched entries around it. *)
let test_oscillator_in_batch () =
  let m = Builder.fig1 () in
  let faults =
    Fault.enumerate m
    @ [ Fault.Oscillator { sink = "B1"; step = 1; phase = Phase.Ra } ]
  in
  let auto = Campaign.run_parallel ~jobs:2 ~engine:`Auto ~faults m in
  let kernel = Campaign.run_parallel ~jobs:2 ~engine:`Kernel ~faults m in
  if full_report_string auto <> full_report_string kernel then
    Alcotest.fail "oscillator campaign differs between engines";
  match List.rev auto.Campaign.entries with
  | last :: _ ->
    (match last.Campaign.kernel_outcome with
     | Campaign.Hung _ -> ()
     | o ->
       Alcotest.failf "oscillator classified %a, expected Hung"
         Campaign.pp_outcome o)
  | [] -> Alcotest.fail "empty campaign"

(* Journals carry the same entries whichever engine computed them;
   append order is scheduling-dependent, so compare them as the sets
   they are (sorted lines). *)
let test_journal_parity () =
  let m = Builder.fig1 () in
  let sorted_lines path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    List.sort compare (String.split_on_char '\n' s)
  in
  let with_tmp f =
    let path = Filename.temp_file "csrtl_batch" ".jsonl" in
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)
  in
  with_tmp @@ fun j_kernel ->
  with_tmp @@ fun j_auto ->
  let run ~engine journal =
    match
      Campaign.run_journaled ~jobs:2 ~engine ~journal ~resume:false m
    with
    | Ok (r, _) -> r
    | Error e -> Alcotest.failf "journaled campaign failed: %s" e
  in
  let rk = run ~engine:`Kernel j_kernel in
  let ra = run ~engine:`Auto j_auto in
  if full_report_string ra <> full_report_string rk then
    Alcotest.fail "journaled reports differ between engines";
  if sorted_lines j_auto <> sorted_lines j_kernel then
    Alcotest.fail "journal contents differ between engines"

let prop_four_engines =
  QCheck.Test.make ~name:"batch = compiled = interp = kernel under faults"
    ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      four_way (Consist.random_model seed);
      true)

let prop_join_parity =
  QCheck.Test.make ~name:"joined batch = kernel resumed from checkpoint"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      join_parity (Consist.random_model seed);
      true)

let prop_retirement =
  QCheck.Test.make ~name:"early retirement only on masked faults"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      retirement_sound (Consist.random_model seed);
      true)

let prop_detection =
  QCheck.Test.make
    ~name:"early detection only on detected faults, at the kernel's \
           diagnosis point"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      detection_sound (Consist.random_model ~conflict:(seed mod 2 = 0) seed);
      true)

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "batch"
    [ ( "engines",
        [ Alcotest.test_case "fig1 four-way" `Quick test_fig1;
          Alcotest.test_case "fig1 join parity" `Quick test_fig1_join;
          Alcotest.test_case "fig1 retirement" `Quick test_fig1_retire;
          Alcotest.test_case "fig1 early detection" `Quick test_fig1_detect ] );
      ( "campaign",
        [ Alcotest.test_case "fig1 engine/jobs/batch invariance" `Quick
            test_invariance;
          Alcotest.test_case "oscillator rides the kernel path" `Quick
            test_oscillator_in_batch;
          Alcotest.test_case "journal parity" `Quick test_journal_parity;
          Alcotest.test_case "early retirement and detection counts" `Quick
            test_early_counts ] );
      qsuite "differential"
        [ prop_four_engines; prop_join_parity; prop_retirement;
          prop_detection; prop_invariance ] ]
