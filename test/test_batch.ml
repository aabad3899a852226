(* Differential lockdown of the batched lockstep executor: for every
   compilable fault the three realizations — event kernel, interpreter,
   batched lockstep — must agree on the full observation, the batched
   cycle prediction must equal what the kernel actually ran, a variant retired early must provably be
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
    (fun f -> Sched.compilable ~inject:(Fault.to_inject f) m = Ok ())
    (Fault.enumerate m)

(* One model, all its compilable faults, all three engines from step 0
   — plus the kernel resumed from the fault's golden boundary, which
   the batched join must reproduce byte-for-byte. *)
let four_way (m : Model.t) =
  let faults = compilable_faults m in
  if faults <> [] then begin
    let specs =
      List.map
        (fun f ->
          { Batch.inject = Fault.to_inject f; join = 0;
            settle = Fault.last_step m f })
        faults
    in
    let golden_batch, results = Batch.golden m specs in
    let golden = (Simulate.run_cfg m).Simulate.obs in
    agree "batch-golden/kernel-golden" (List.hd faults) golden_batch golden;
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

(* Chains are where variants merge (see "merging" below): the whole
   fault list in one batch from reset, and joined at the faults'
   boundaries, against the kernel. *)
let test_chain_differential () =
  four_way (Chain_model.chain 16);
  let m = Chain_model.chain 24 in
  join_parity m;
  retirement_sound m;
  detection_sound m

(* The dispatch counts of three campaigns, pinned: retirement counts
   only re-converged variants (the benchmark probe reads it as the
   retire ratio), early detection only the ones stopped at a new
   conflict — every detected batched fault on these models — and
   merging the variants that took another row's future.  Merging keeps
   every verdict, so it moves neither of the first two counts. *)
let test_early_counts () =
  List.iter
    (fun ((m : Model.t), retired, detected, merged) ->
      let r, st = Campaign.run_with_stats ~jobs:1 m in
      let name = m.Model.name in
      Alcotest.(check int) (name ^ " retired early") retired
        st.Campaign.retired_early;
      Alcotest.(check int) (name ^ " detected early") detected
        st.Campaign.detected_early;
      Alcotest.(check int) (name ^ " every detection early")
        r.Campaign.detected st.Campaign.detected_early;
      Alcotest.(check int) (name ^ " merged") merged st.Campaign.merged)
    [ (Builder.fig1 (), 2, 15, 3);
      (Chain_model.chain 24, 2, 107, 93);
      (Chain_model.chain 32, 2, 139, 125) ]

(* ---- merging ------------------------------------------------------ *)

(* Campaign-shaped specs (joined at the fault's boundary) in lockstep
   batches of [k]. *)
let campaign_batches ?(k = 32) (m : Model.t) =
  let specs =
    List.map
      (fun f ->
        { Batch.inject = Fault.to_inject f;
          join = Campaign.boundary_of_fault m f;
          settle = Fault.last_step m f })
      (compilable_faults m)
  in
  let rec split = function
    | [] -> []
    | l ->
      List.filteri (fun i _ -> i < k) l
      :: split (List.filteri (fun i _ -> i >= k) l)
  in
  split specs

let same_verdict (a : Batch.result) (b : Batch.result) =
  a.Batch.cycles = b.Batch.cycles
  &&
  match (a.Batch.verdict, b.Batch.verdict) with
  | Batch.Finished x, Batch.Finished y -> Observation.equal x y
  | Batch.Converged x, Batch.Converged y -> x = y
  | Batch.Detected (s1, p1, n1), Batch.Detected (s2, p2, n2) ->
    s1 = s2 && Phase.equal p1 p2 && String.equal n1 n2
  | _ -> false

(* Merging is invisible: every batch gives the verdicts, cycle
   predictions and observations its variants give one at a time — a
   one-variant batch has no other variant to follow.  Returns the rows
   merged and the row-steps of the batches (golden rows included) and
   of the same variants run alone, with the batches' golden rows. *)
let merge_invisible (m : Model.t) =
  let plan = Batch.plan m in
  List.fold_left
    (fun (merged, on_steps, off_steps) specs ->
      let on = Batch.run_with plan specs in
      let off = List.concat_map (fun s -> Batch.run_with plan [ s ]) specs in
      List.iter2
        (fun (a : Batch.result) b ->
          if not (same_verdict a b) then
            Alcotest.failf "%s: merging changed a verdict" m.Model.name)
        on off;
      let count rs =
        List.length (List.filter (fun (r : Batch.result) -> r.Batch.merged) rs)
      in
      let sum rs =
        List.fold_left (fun n (r : Batch.result) -> n + r.Batch.steps)
          m.Model.cs_max rs
      in
      if count off > 0 then
        Alcotest.failf "%s: a variant run alone merged" m.Model.name;
      (merged + count on, on_steps + sum on, off_steps + sum off))
    (0, 0, 0) (campaign_batches m)

(* On the benchmark-shaped chains, dropping an operand's [ra] or [rb]
   leg, or a result's [wa] or [wb] leg, leaves the same DISC behind:
   those variants merge, and the row-steps executed (golden rows
   included) fall: 1084 to 797 on the 16-step chain, and by at least
   30%, 3359 to 2273, on the 32-step one. *)
let test_merge_invisible () =
  List.iter
    (fun (m, want, kept_pct) ->
      let merged, on, off = merge_invisible m in
      Alcotest.(check int) (m.Model.name ^ " merged") want merged;
      if on * 100 > off * kept_pct then
        Alcotest.failf "%s: merging left %d of %d row-steps" m.Model.name on
          off)
    [ (Chain_model.chain 16, 62, 75); (Chain_model.chain 32, 125, 70) ]

let test_fig1_merge () =
  let merged, _, _ = merge_invisible (Builder.fig1 ()) in
  Alcotest.(check int) "fig1 merged" 3 merged

(* ---- campaign determinism: the batched path is invisible -------- *)

let full_report_string (r : Campaign.report) =
  Format.asprintf "%a@.%a" Campaign.pp_report r
    (Format.pp_print_list Campaign.pp_entry)
    r.Campaign.entries

(* One reference campaign on the kernel path; every (engine, jobs,
   batch) combination must print the same bytes. *)
let campaign_invariance (m : Model.t) =
  let reference =
    full_report_string (Campaign.run ~jobs:1 ~engine:`Kernel m)
  in
  List.iter
    (fun (engine, name) ->
      let seq = full_report_string (Campaign.run ~jobs:1 ~engine m) in
      if seq <> reference then
        Alcotest.failf "sequential %s report differs from kernel path" name)
    [ (`Auto, "auto"); (`Compiled, "compiled") ];
  List.iter
    (fun batch ->
      List.iter
        (fun jobs ->
          let r =
            Pools.with_jobs jobs (fun pool ->
                full_report_string
                  (Campaign.run ?pool ~jobs ~engine:`Auto ~batch m))
          in
          if r <> reference then
            Alcotest.failf "report differs at jobs=%d batch=%d" jobs batch)
        [ 1; 2 ])
    [ 1; 8; 64 ]

(* A campaign too small to repay a pool runs on the calling domain,
   even when asked for two. *)
let test_small_campaign_one_domain () =
  let _, st = Campaign.run_with_stats ~jobs:2 (Builder.fig1 ()) in
  Alcotest.(check int) "fig1 domains" 1 st.Campaign.domains

(* A one-variant batch has no other variant to follow, and no
   corrupted chain variant re-joins the golden row, so batch 1 is the
   campaign without merging: the bytes must not move at batch 32,
   where 125 variants merge. *)
let test_merge_bytes () =
  let m = Chain_model.chain 32 in
  let one, st1 = Campaign.run_with_stats ~jobs:1 ~batch:1 m in
  let many, st32 = Campaign.run_with_stats ~jobs:1 ~batch:32 m in
  Alcotest.(check int) "merged at batch 1" 0 st1.Campaign.merged;
  if st32.Campaign.merged = 0 then Alcotest.fail "nothing merged at batch 32";
  if full_report_string one <> full_report_string many then
    Alcotest.fail "chain32 report differs between batch 1 and batch 32"

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
  let auto, kernel =
    Pools.with_jobs 2 (fun pool ->
        ( Campaign.run ?pool ~engine:`Auto ~faults m,
          Campaign.run ?pool ~engine:`Kernel ~faults m ))
  in
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

let prop_three_engines =
  QCheck.Test.make ~name:"batch = interp = kernel under faults"
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
          Alcotest.test_case "fig1 early detection" `Quick test_fig1_detect;
          Alcotest.test_case "merging chains four-way and joined" `Quick
            test_chain_differential ] );
      ( "campaign",
        [ Alcotest.test_case "fig1 engine/jobs/batch invariance" `Quick
            test_invariance;
          Alcotest.test_case "oscillator rides the kernel path" `Quick
            test_oscillator_in_batch;
          Alcotest.test_case "journal parity" `Quick test_journal_parity;
          Alcotest.test_case "early retirement and detection counts" `Quick
            test_early_counts ] );
      ( "merging",
        [ Alcotest.test_case "chains: merging is invisible" `Quick
            test_merge_invisible;
          Alcotest.test_case "fig1: merging is invisible" `Quick
            test_fig1_merge;
          Alcotest.test_case "chain32 bytes at batch 1 and 32" `Quick
            test_merge_bytes;
          Alcotest.test_case "small campaign stays on one domain" `Quick
            test_small_campaign_one_domain ] );
      qsuite "differential"
        [ prop_three_engines; prop_join_parity; prop_retirement;
          prop_detection; prop_invariance ] ]
