(* Scaling lockdown for the structure-of-arrays lockstep executor and
   the clamped domain pool.  The arena layout, per-domain arena reuse,
   pool width and batch size are scheduling and
   representation choices: none may show up in campaign bytes at any
   point of the (engine, jobs, batch) acceptance matrix, repeated runs
   on one cached arena must be bit-stable, and the step loop itself is
   pinned allocation-free on the minor heap. *)

open Csrtl_core
module Consist = Csrtl_verify.Consist
module Fault = Csrtl_fault.Fault
module Campaign = Csrtl_fault.Campaign
module Par = Csrtl_par.Par

let full_report_string (r : Campaign.report) =
  Format.asprintf "%a@.%a" Campaign.pp_report r
    (Format.pp_print_list Campaign.pp_entry)
    r.Campaign.entries

(* ---- the (engine, jobs, batch) acceptance matrix ---------------- *)

let engines = [ (`Kernel, "kernel"); (`Auto, "auto"); (`Compiled, "compiled") ]

(* Every engine at every jobs in {1,2,4} and batch in {1,8,32,64}
   must print the reference (sequential kernel-path) bytes; the
   multi-job legs run on real domains ({!Pools.with_jobs}). *)
let layout_matrix (m : Model.t) =
  let reference =
    full_report_string (Campaign.run ~jobs:1 ~engine:`Kernel m)
  in
  List.iter
    (fun (engine, name) ->
      List.iter
        (fun jobs ->
          List.iter
            (fun batch ->
              let r =
                Pools.with_jobs jobs (fun pool ->
                    full_report_string
                      (Campaign.run ?pool ~jobs ~engine ~batch m))
              in
              if r <> reference then
                Alcotest.failf "%s report differs at jobs=%d batch=%d"
                  name jobs batch)
            [ 1; 8; 32; 64 ])
        [ 1; 2; 4 ])
    engines

let test_matrix_fig1 () = layout_matrix (Builder.fig1 ())

(* The corpus model with the longest fault list: the most sinks and
   legs, and a schedule conflict the campaign must carry unchanged. *)
let test_matrix_conflict () =
  layout_matrix (Rtm.of_file (Filename.concat "corpus" "conflict.rtm"))

(* A journal holds more than the report prints: every entry's cycle
   count and law verdict.  Its entries, sorted by index (append order
   is scheduling), must be the kernel path's at every point of the
   matrix. *)
let journal_entries ~jobs ~engine ~batch m =
  let journal = Filename.temp_file "csrtl_matrix" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove journal) @@ fun () ->
  match
    Pools.with_jobs jobs (fun pool ->
        Campaign.run_journaled ?pool ~jobs ~engine ~batch ~journal
          ~resume:false m)
  with
  | Error e -> Alcotest.failf "%s: %s" m.Model.name e
  | Ok _ ->
    (match Csrtl_fault.Journal.read journal with
     | Error e -> Alcotest.failf "%s: journal unreadable: %s" m.Model.name e
     | Ok (_, entries, _) ->
       List.sort
         (fun (a : Csrtl_fault.Journal.entry) b ->
           Int.compare a.Csrtl_fault.Journal.index b.Csrtl_fault.Journal.index)
         entries)

let journal_matrix (m : Model.t) =
  let reference = journal_entries ~jobs:1 ~engine:`Kernel ~batch:32 m in
  if reference = [] then Alcotest.failf "%s: empty journal" m.Model.name;
  List.iter
    (fun (engine, name) ->
      List.iter
        (fun jobs ->
          List.iter
            (fun batch ->
              if journal_entries ~jobs ~engine ~batch m <> reference then
                Alcotest.failf "%s: %s journal differs at jobs=%d batch=%d"
                  m.Model.name name jobs batch)
            [ 1; 7; 32 ])
        [ 1; 2 ])
    engines

let test_journal_matrix () =
  List.iter journal_matrix
    [ Builder.fig1 ();
      Rtm.of_file (Filename.concat "corpus" "fault_chain.rtm");
      Chain_model.chain 24 ]

let prop_matrix =
  QCheck.Test.make ~name:"bytes invariant over engine x jobs x batch"
    ~count:3
    QCheck.(int_range 0 100_000)
    (fun seed ->
      layout_matrix (Consist.random_model seed);
      true)

(* The benchmark's own model shape — lanes of add/sub units over
   random 20-bit initial values — through the (engine, jobs, batch)
   matrix: every point must print the sequential kernel path's bytes.
   One lane is a chain; four lanes put several units in every step. *)
let test_matrix_lanes () =
  List.iter
    (fun (lanes, steps) ->
      List.iter
        (fun seed ->
          let m =
            Chain_model.lanes ~seed ~lanes ~steps ~ops:[ "add"; "sub" ]
          in
          let reference =
            full_report_string
              (Campaign.run ~jobs:1 ~engine:`Kernel m)
          in
          List.iter
            (fun (engine, name) ->
              List.iter
                (fun jobs ->
                  List.iter
                    (fun batch ->
                      let r =
                        Pools.with_jobs jobs (fun pool ->
                            full_report_string
                              (Campaign.run ?pool ~jobs ~engine ~batch m))
                      in
                      if r <> reference then
                        Alcotest.failf
                          "%s: %s report differs at jobs=%d batch=%d"
                          m.Model.name name jobs batch)
                    [ 1; 32 ])
                [ 1; 2 ])
            [ (`Auto, "auto"); (`Kernel, "kernel") ])
        [ 1; 2; 3 ])
    [ (1, 24); (4, 12) ]

(* ---- arena reuse ------------------------------------------------ *)

let result_equal (a : Batch.result) (b : Batch.result) =
  a.Batch.cycles = b.Batch.cycles
  &&
  match (a.Batch.verdict, b.Batch.verdict) with
  | Batch.Finished x, Batch.Finished y -> Observation.equal x y
  | Batch.Converged x, Batch.Converged y -> x = y
  | Batch.Detected (s1, p1, n1), Batch.Detected (s2, p2, n2) ->
    s1 = s2 && Phase.equal p1 p2 && String.equal n1 n2
  | _ -> false

let compilable_specs (m : Model.t) =
  List.filter_map
    (fun f ->
      let inject = Fault.to_inject f in
      if Sched.compilable ~inject m = Ok () then
        Some { Batch.inject; join = 0; settle = Fault.last_step m f }
      else None)
    (Fault.enumerate m)

(* Repeated [run_with] on one plan reuses the domain-cached arena; the
   recycled rows must keep producing the first run's results — on this
   domain and on every worker of an (oversubscribed, so genuinely
   multi-domain) pool. *)
let test_arena_reuse () =
  let m = Builder.fig1 () in
  let plan = Batch.plan m in
  let specs = compilable_specs m in
  if specs = [] then Alcotest.fail "fig1 enumerates no compilable faults";
  let first = Batch.run_with plan specs in
  for i = 2 to 20 do
    let again = Batch.run_with plan specs in
    if not (List.for_all2 result_equal first again) then
      Alcotest.failf "arena reuse diverged on sequential rerun %d" i
  done;
  Par.with_pool ~oversubscribe:true ~jobs:4 (fun pool ->
      let reruns =
        Par.map pool ~chunks:8
          (fun _ -> Batch.run_with plan specs)
          (List.init 16 Fun.id)
      in
      List.iteri
        (fun i again ->
          if not (List.for_all2 result_equal first again) then
            Alcotest.failf "arena reuse diverged on pooled rerun %d" i)
        reruns)

(* A campaign classifies a chunk's results after the chunk returns,
   and may capture a checkpoint or run a golden on the same domain's
   arena meanwhile.  No result may alias arena memory: rebinding the
   arena for a capture, a resume, a golden run and another batch must
   leave every observation the first batch returned unchanged. *)
let test_results_own_memory () =
  let m = Chain_model.chain 16 in
  let plan = Batch.plan m in
  let specs = compilable_specs m in
  let results = Batch.run_with plan specs in
  if
    not
      (List.exists
         (fun (r : Batch.result) ->
           match r.Batch.verdict with Batch.Finished _ -> true | _ -> false)
         results)
  then Alcotest.fail "chain16 batch finished no variant";
  let copy : Batch.result list =
    Marshal.from_string (Marshal.to_string results []) 0
  in
  let snaps = Batch.snapshots_at plan ~steps:[ 3; m.Model.cs_max ] in
  ignore (Batch.resume plan ~from:(List.hd snaps));
  ignore (Batch.golden_with plan []);
  ignore (Batch.run_with plan (List.rev specs));
  if results <> copy then
    Alcotest.fail "a batch result changed when the arena was rebound"

(* ---- the pinned zero-allocation law ----------------------------- *)

(* Variants that never record a conflict exercise the whole loop
   (retirement checks, observation dirty tracking, pipeline stepping)
   without touching the one code path allowed to cons — recording a
   conflict localization.  For these the lockstep step loop must not
   allocate a single minor-heap word: the law DESIGN.md pins for the
   SoA arena. *)
let conflict_free_spec m f =
  match f with
  | Fault.Dropped_leg _ ->
    let inject = Fault.to_inject f in
    if Sched.compilable ~inject m <> Ok () then None
    else begin
      let spec = { Batch.inject; join = 0; settle = Fault.last_step m f } in
      match Batch.run m [ spec ] with
      | [ { Batch.verdict = Batch.Finished o; _ } ]
        when o.Observation.conflicts = [] ->
        Some spec
      | [ { Batch.verdict = Batch.Converged _; _ } ] -> Some spec
      | _ -> None
    end
  | _ -> None

let test_zero_alloc () =
  let m = Builder.fig1 () in
  let plan = Batch.plan m in
  let specs = List.filter_map (conflict_free_spec m) (Fault.enumerate m) in
  if specs = [] then
    Alcotest.fail "fig1 enumerates no conflict-free dropped-leg faults";
  (* first call warms the domain's arena (growth happens in bind) *)
  ignore (Batch.alloc_probe plan specs);
  let words = Batch.alloc_probe plan specs in
  if words <> 0. then
    Alcotest.failf "lockstep step loop allocated %.0f minor words" words

(* The same law on a chunk whose variants merge: a chain's [wa] and
   [wb] drops of one transfer leave the same DISC on the register
   input, so each pair's later row follows the earlier one.  Hashing
   rows into the arena's table and following a leader must not
   allocate either. *)
let test_zero_alloc_merging () =
  let m = Chain_model.chain 16 in
  let plan = Batch.plan m in
  let legs, _ = Model.all_legs m in
  let specs =
    List.filter_map (conflict_free_spec m)
      (List.filter
         (fun f ->
           match f with
           | Fault.Dropped_leg { index; _ } ->
             let l = List.nth legs index in
             Phase.equal l.Transfer.phase Phase.Wa
             || Phase.equal l.Transfer.phase Phase.Wb
           | _ -> false)
         (Fault.enumerate m))
  in
  let merged =
    List.length
      (List.filter (fun (r : Batch.result) -> r.Batch.merged)
         (Batch.run_with plan specs))
  in
  if merged = 0 then
    Alcotest.failf "none of %d wa/wb drops merged" (List.length specs);
  ignore (Batch.alloc_probe plan specs);
  let words = Batch.alloc_probe plan specs in
  if words <> 0. then
    Alcotest.failf "merging step loop allocated %.0f minor words" words

(* ---- the per-fault allocation bound ----------------------------- *)

let chain = Chain_model.chain

(* Minor words per fault of a whole sequential campaign — goldens,
   checkpoints, overlays, lockstep batches, classification.  The
   bounds sit at about twice the measured count (1.3k and 6.3k), so
   per-fault work that grows with the model (rebuilding the leg list,
   formatting every differing step through [Format]) cannot come back
   unnoticed: it cost about 6k words per fault on fault_chain and 54k
   on the 32-step chain. *)
let test_alloc_per_fault () =
  List.iter
    (fun ((m : Model.t), bound) ->
      let faults = Fault.enumerate m in
      let w0 = Gc.minor_words () in
      let r = Campaign.run ~faults m in
      let per_fault =
        (Gc.minor_words () -. w0) /. float_of_int r.Campaign.total
      in
      if per_fault > bound then
        Alcotest.failf "%s: %.0f minor words per fault, bound %.0f"
          m.Model.name per_fault bound)
    [ (Rtm.of_file (Filename.concat "corpus" "fault_chain.rtm"), 2600.);
      (chain 32, 12500.) ]

(* A one-shot campaign allocates less than one minor heap, so it need
   never collect, unless something forces it.  [Array.make n v] with
   n > 256 and a freshly allocated [v] does: it runs a minor
   collection first, which then promotes the whole young heap.
   Compiling the 390-slot table of a 32-transfer chain must not. *)
let test_plan_forces_no_minor_gc () =
  let m = chain 32 in
  if m.Model.cs_max * Phase.count <= 256 then
    Alcotest.fail "the chain no longer has more than 256 slots";
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  ignore (Sys.opaque_identity (Batch.plan m));
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  if after <> before then
    Alcotest.failf "Batch.plan ran %d minor collection(s)" (after - before)

(* The interpreter golden every campaign runs for its cross-check:
   about 9.7k minor words on the 32-transfer chain, most of them the
   leg list and model validation.  Hashtable state copied per phase
   and names built per leg cost 79k. *)
let test_interp_words () =
  let m = chain 32 in
  ignore (Interp.run m);
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Interp.run m));
  let words = Gc.minor_words () -. w0 in
  if words > 10_000. then
    Alcotest.failf "Interp.run (chain 32): %.0f minor words, bound 10000"
      words

(* [Model.all_legs] is built once per model: parsing, scheduling,
   enumeration and every interpreter run of a campaign ask for it, and
   the first call keeps it, so the next call allocates nothing.
   [Gc.minor_words] boxes its result, so an empty probe calibrates that
   out. *)
let test_all_legs_built_once () =
  let m = chain 32 in
  let kept = Model.all_legs m in
  let b0 = Gc.minor_words () in
  let b1 = Gc.minor_words () in
  let w0 = Gc.minor_words () in
  let again = Sys.opaque_identity (Model.all_legs m) in
  let words = Gc.minor_words () -. w0 -. (b1 -. b0) in
  if words <> 0. then
    Alcotest.failf "a second Model.all_legs call allocated %.0f minor words"
      words;
  Alcotest.(check bool) "the kept lists" true (again == kept);
  (* another model value, even an equal one, is asked about afresh *)
  let copy = { m with Model.name = m.Model.name } in
  Alcotest.(check bool) "a copy decomposes equally" true
    (Model.all_legs copy = kept);
  Alcotest.(check bool) "a copy is not served the original's lists" true
    (Model.all_legs copy != kept)

(* A kernel-path fault resumes the interpreter from a checkpoint the
   campaign captured from its own model, passing the digest it holds:
   resuming at the middle boundary of the 32-transfer chain may cost at
   most 1.25x the words of a whole [Interp.run].  Re-rendering and
   hashing the model on every resume made it about 3.3x (31.5k words
   against 9.7k). *)
let test_resume_words () =
  let m = chain 32 in
  let from =
    List.hd
      (Batch.snapshots_at (Batch.plan m) ~steps:[ m.Model.cs_max / 2 ])
  in
  let digest = from.Snapshot.digest in
  let inject = Inject.dropped_leg 20 in
  let words f =
    ignore (f ());
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. w0
  in
  let run = words (fun () -> Interp.run m)
  and resume = words (fun () -> Interp.resume ~digest ~inject ~from m) in
  if resume > 1.25 *. run then
    Alcotest.failf "Interp.resume (chain 32): %.0f minor words, run %.0f"
      resume run

(* ---- per-fault overlay cost ------------------------------------- *)

(* Words a call allocates on either heap: the slot table of a long
   schedule is a major-heap block, which [Gc.minor_words] misses. *)
let words_allocated f =
  let before = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (f ()));
  (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)

(* A fault overlay patches one or two slots, so its cost must not grow
   with the schedule: dropping one leg of a 128-step chain may cost at
   most 1.25x the words of a 32-step chain's.  Copying the whole slot
   table per overlay made it about 4x. *)
let test_overlay_words () =
  let words steps =
    let base = Sched.compile (chain steps) in
    let inject = Inject.dropped_leg 1 in
    ignore (Sched.overlay base inject);
    let n = 50 in
    let total = ref 0. in
    for _ = 1 to n do
      total := !total +. words_allocated (fun () -> Sched.overlay base inject)
    done;
    !total /. float_of_int n
  in
  let short = words 32 and long = words 128 in
  if long > 1.25 *. short then
    Alcotest.failf "overlay words: %.0f at 32 steps, %.0f at 128" short long

(* Classifying a finished corrupted variant counts its differing
   cells but renders only the first, so its cost must not grow with
   the schedule either: a run corrupted at every step of a 128-step
   chain may cost at most 1.25x the words of a 32-step chain's.  A
   renderer closure per differing cell made it about 4x. *)
let test_witness_words () =
  let words steps =
    let golden = fst (Batch.golden (chain steps) []) in
    let corrupted =
      { golden with
        Observation.regs =
          List.map
            (fun (n, trace) -> (n, Array.map (fun v -> v + 1) trace))
            golden.Observation.regs }
    in
    let g = Observation.normalize golden
    and c = Observation.normalize corrupted in
    (match Observation.witness_normalized g c with
     | Some (count, _) when count >= 2 * steps -> ()
     | _ -> Alcotest.failf "chain %d: every step should differ" steps);
    words_allocated (fun () -> Observation.witness_normalized g c)
  in
  let short = words 32 and long = words 128 in
  if long > 1.25 *. short then
    Alcotest.failf "witness words: %.0f at 32 steps, %.0f at 128" short long

(* ---- persisted bytes per fault ---------------------------------- *)

(* A journal line records an outcome, not the run behind it, so its
   size must not grow with the schedule: a chain 4x longer may cost at
   most 1.25x the bytes per fault (fault labels and localizations name
   longer step numbers).  Listing every differing step of a corrupted
   run made it 3.6x (2147 to 7660 bytes per fault). *)
let test_journal_bytes_per_fault () =
  let per_fault steps =
    let m = chain steps in
    let journal = Filename.temp_file "csrtl_scaling" ".jsonl" in
    Fun.protect ~finally:(fun () -> Sys.remove journal) @@ fun () ->
    match Campaign.run_journaled ~jobs:1 ~journal ~resume:false m with
    | Error e -> Alcotest.failf "chain %d: %s" steps e
    | Ok (r, _) ->
      let bytes = (Unix.stat journal).Unix.st_size in
      float_of_int bytes /. float_of_int r.Campaign.total
  in
  let short = per_fault 32 and long = per_fault 128 in
  if long > 1.25 *. short then
    Alcotest.failf "journal bytes per fault: %.0f at 32 steps, %.0f at 128"
      short long

(* ---- replaying a finished journal -------------------------------- *)

let with_journal m f =
  let journal = Filename.temp_file "csrtl_replay" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove journal) @@ fun () ->
  (match Campaign.run_journaled ~jobs:1 ~journal ~resume:false m with
   | Error e -> Alcotest.failf "%s: %s" m.Model.name e
   | Ok _ -> ());
  f journal

(* Reading a journal decodes each entry line in one pass over its own
   bytes: at most 400 minor words per entry on a 200-entry journal
   (about 170 measured, most of them the entry's own values).  Parsing
   every line into a generic JSON tree and re-serializing it to check
   its hash cost about 1,550. *)
let test_journal_read_words () =
  let m = chain 32 in
  let faults = List.filteri (fun i _ -> i < 200) (Fault.enumerate m) in
  if List.length faults < 200 then Alcotest.fail "chain 32 has < 200 faults";
  let journal = Filename.temp_file "csrtl_read" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove journal) @@ fun () ->
  (match Campaign.run_journaled ~jobs:1 ~faults ~journal ~resume:false m with
   | Error e -> Alcotest.failf "chain 32: %s" e
   | Ok _ -> ());
  let read () =
    match Csrtl_fault.Journal.read journal with
    | Ok (_, entries, 0) -> entries
    | Ok (_, _, torn) -> Alcotest.failf "%d torn lines" torn
    | Error e -> Alcotest.failf "read: %s" e
  in
  ignore (read ());
  let w0 = Gc.minor_words () in
  let entries = Sys.opaque_identity (read ()) in
  let per_entry = (Gc.minor_words () -. w0) /. 200. in
  Alcotest.(check int) "entries" 200 (List.length entries);
  if per_entry > 400. then
    Alcotest.failf "Journal.read: %.0f minor words per entry, bound 400"
      per_entry

(* A resume whose journal covers every fault computes nothing, so it
   builds nothing: [warm], which supplies the plan and the goldens the
   set-up would otherwise build itself, is never forced.  Once one
   entry is missing it is forced exactly once. *)
let test_replay_builds_nothing () =
  let m = chain 80 in
  with_journal m @@ fun journal ->
  let forced = ref 0 in
  let replay () =
    match
      Campaign.run_journaled ~jobs:1
        ~warm:(fun () -> incr forced; (None, None))
        ~journal ~resume:true m
    with
    | Ok (_, info) -> info
    | Error e -> Alcotest.failf "replay: %s" e
  in
  let info = replay () in
  Alcotest.(check int) "full replay: nothing re-run" 0 info.Campaign.rerun;
  Alcotest.(check int) "full replay: warm set-up never forced" 0 !forced;
  let text = In_channel.with_open_bin journal In_channel.input_all in
  let cut = String.rindex_from text (String.length text - 2) '\n' + 1 in
  Out_channel.with_open_bin journal (fun oc ->
      output_string oc (String.sub text 0 cut));
  let info = replay () in
  Alcotest.(check int) "one entry missing: one re-run" 1 info.Campaign.rerun;
  Alcotest.(check int) "one entry missing: warm forced once" 1 !forced

(* A golden artifact holds the two golden observations and no
   checkpoints, so its size is linear in the schedule: a chain 4x
   longer may cost at most 1.25x the bytes per control step.  Storing a
   checkpoint with its whole observation prefix at every boundary made
   it about 3.3x.  The registers start at ten digits, so every value the
   chain sums prints about as wide and the bytes count stored values;
   from small initial values the longer chain's sums also print wider. *)
let artifact_bytes m =
  String.length (Csrtl_fault.Artifact.to_string (Campaign.prepare m))

let test_artifact_bytes_per_step () =
  let per_step steps =
    let m = chain ~init:(3_000_000_019, 4_000_000_007) steps in
    float_of_int (artifact_bytes m) /. float_of_int m.Model.cs_max
  in
  let short = per_step 32 and long = per_step 128 in
  if long > 1.25 *. short then
    Alcotest.failf "artifact bytes per step: %.0f at 32 steps, %.0f at 128"
      short long

(* The paper's IKS application (about 2300 control steps) must fit an
   artifact under the input limit that guards reading one back, so the
   artifact cache can hit on it without raising the limit. *)
let test_iks_artifact_fits () =
  let module Iks = Csrtl_iks in
  let f = Iks.Fixed.of_float in
  let t = Iks.Ikprog.build ~l1:(f 2.0) ~l2:(f 1.5) ~px:(f 1.2) ~py:(f 0.8) in
  let m =
    Iks.Translate.to_model ~inputs:t.Iks.Ikprog.inputs
      ~reg_init:t.Iks.Ikprog.reg_init t.Iks.Ikprog.program
  in
  let limit = Csrtl_diag.Diag.Limits.(default.max_input_bytes) in
  let bytes = artifact_bytes m in
  if bytes > limit then
    Alcotest.failf "IKS artifact: %d bytes, input limit %d" bytes limit

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "csrtl-scaling"
    [ ( "matrix",
        [ Alcotest.test_case "fig1 engine x jobs x batch" `Quick
            test_matrix_fig1;
          Alcotest.test_case "conflict engine x jobs x batch" `Quick
            test_matrix_conflict;
          Alcotest.test_case "journal entries over engine x jobs x batch"
            `Quick test_journal_matrix;
          Alcotest.test_case "benchmark lanes engine x jobs x batch" `Quick
            test_matrix_lanes ] );
      qsuite "matrix-random" [ prop_matrix ];
      ( "arena",
        [ Alcotest.test_case "per-domain arena reuse is deterministic" `Quick
            test_arena_reuse;
          Alcotest.test_case "results never alias the arena" `Quick
            test_results_own_memory;
          Alcotest.test_case "step loop allocates zero minor words" `Quick
            test_zero_alloc;
          Alcotest.test_case "merging step loop allocates zero minor words"
            `Quick test_zero_alloc_merging;
          Alcotest.test_case "campaign minor words per fault bounded" `Quick
            test_alloc_per_fault;
          Alcotest.test_case "plan of a long chain forces no minor GC" `Quick
            test_plan_forces_no_minor_gc;
          Alcotest.test_case "all_legs kept from its first call" `Quick
            test_all_legs_built_once;
          Alcotest.test_case "interpreter golden minor words bounded" `Quick
            test_interp_words;
          Alcotest.test_case "campaign-side resume minor words bounded"
            `Quick test_resume_words;
          Alcotest.test_case "overlay words independent of schedule length"
            `Quick test_overlay_words;
          Alcotest.test_case "witness words independent of schedule length"
            `Quick test_witness_words ] );
      ( "bytes",
        [ Alcotest.test_case "journal bytes per fault bounded" `Quick
            test_journal_bytes_per_fault;
          Alcotest.test_case "artifact bytes per step bounded" `Quick
            test_artifact_bytes_per_step;
          Alcotest.test_case "IKS artifact fits the input limit" `Quick
            test_iks_artifact_fits ] );
      ( "replay",
        [ Alcotest.test_case "journal read minor words per entry bounded"
            `Quick test_journal_read_words;
          Alcotest.test_case "full replay builds no plan and no golden"
            `Quick test_replay_builds_nothing ] ) ]
