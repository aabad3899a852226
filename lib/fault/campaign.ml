open Csrtl_core

type outcome = Outcome.t =
  | Masked
  | Detected of int * Phase.t * string
  | Corrupted of { count : int; first : string }
  | Hung of string
  | Crashed of string

type entry = {
  fault : Fault.t;
  kernel_outcome : outcome;
  interp_outcome : outcome;
  kernel_cycles : int;
  law_ok : bool;
}

type report = {
  model : string;
  total : int;
  masked : int;
  detected : int;
  corrupted : int;
  hung : int;
  crashed : int;
  disagreements : int;
  law_violations : int;
  coverage : float option;
  entries : entry list;
}

let outcomes_agree = Outcome.agree

(* A golden observation as classification reads it: the raw run (its
   conflicts decide detection) and its conflict-free part, normalized
   once per campaign — every faulted run is diffed against it. *)
type golden = { obs : Observation.t; norm : Observation.t }

let strip o = { o with Observation.conflicts = [] }
let golden_of obs = { obs; norm = Observation.normalize (strip obs) }

(* Masked, or silent data corruption recorded as its difference count
   and first difference: the classification of a run with no conflict
   the golden lacks. *)
let witness_against g (faulted : Observation.t) =
  match
    Observation.witness_normalized g.norm
      (Observation.normalize (strip faulted))
  with
  | None -> Masked
  | Some (count, first) -> Corrupted { count; first }

(* A fault is detected iff it produces a conflict the golden run does
   not have; the first chronological new conflict is the diagnosis
   point.  Anything else that changes the observation is silent data
   corruption. *)
let classify_against g (faulted : Observation.t) =
  let fresh =
    List.filter
      (fun c -> not (List.mem c g.obs.Observation.conflicts))
      faulted.Observation.conflicts
    (* several sinks can turn ILLEGAL in the same delta; the paths
       report them in different (but equivalent) orders, so the
       diagnosis point is the least (step, phase, sink) *)
    |> List.sort
         (fun (s1, p1, n1) (s2, p2, n2) ->
           compare
             (s1, Phase.to_int p1, n1)
             (s2, Phase.to_int p2, n2))
  in
  match fresh with
  | (s, p, n) :: _ -> Detected (s, p, n)
  | [] -> witness_against g faulted

let classify ~golden faulted = classify_against (golden_of golden) faulted

(* Shared state for every fault run of one campaign: the goldens, the
   one compile of the golden schedule (the batch plan) and its leg
   table, plus golden checkpoints at each boundary some kernel-path
   fault resumes from.  Computed once in the caller, read concurrently
   by the pool domains; the checkpoint table alone grows later, under
   its lock, on the rare paths that need a snapshot nobody built. *)
type ctx = {
  m : Model.t;
  config : Simulate.config;
  golden_k : golden;
  golden_i : golden;
  same_golden : bool;
      (* the two goldens are equal (as under [Record]): classification
         reads only the golden, so one serves both engines *)
  legs : Legs.t;
  law : int;  (* [Simulate.expected_cycles m] *)
  restore_on : bool;
      (* faults resume from (or join at) their golden boundary: the
         caller asked for it and the policy is [Record], where golden
         checkpoints are engine-independent *)
  checkpoints : (int, Snapshot.t) Hashtbl.t;
      (* under [ck_lock].  This campaign captured every one from [m],
         so each carries [m]'s digest: a resume passes it on instead of
         re-rendering and hashing the model per fault *)
  ck_lock : Mutex.t;
  built : int Atomic.t;  (* snapshots this campaign computed *)
  budget : float option;
  plan : Batch.plan option;
      (* None only when the model does not validate or compile — and
         then no fault is batchable either, so it is never consulted *)
}

let boundary_in (lf : Legs.t) f =
  min (Fault.first_step_in lf f - 1) lf.Legs.model.Model.cs_max

let boundary_of_fault m f = boundary_in (Legs.of_model m) f

(* One compile of the clean schedule serves the whole campaign: the
   lockstep batches overlay it per fault, and the golden run and the
   checkpoint snapshots run it as row 0 of the same arena.  A caller
   holding a plan-cache hit passes it in and skips even the one. *)
let make_plan ?plan m =
  match plan with
  | Some _ as p -> p
  | None -> ( match Batch.plan m with p -> Some p | exception _ -> None)

(* The plan a golden-row run needs: a model whose plan did not build
   fails here with the same diagnosis. *)
let plan_exn ~plan m = match plan with Some p -> p | None -> Batch.plan m

(* Golden checkpoints come off the static schedule.  Only [Record]
   campaigns restore ([restore_on]), and with no injection
   [Sched.compilable] rejects only [Halt] and [Degrade], so a
   restoring campaign's golden row always compiles. *)
let golden_snapshots ~plan m boundaries =
  Batch.snapshots_at (plan_exn ~plan m) ~steps:boundaries

let boundaries_of ~faults lf =
  List.sort_uniq compare
    (List.filter_map
       (fun f ->
         let b = boundary_in lf f in
         if b >= 1 then Some b else None)
       faults)

let legs_of ~plan m =
  match plan with Some p -> Batch.legs p | None -> Legs.of_model m

(* A campaign's goldens, computed afresh: the kernel-side one, then
   the interpreter's.  The kernel-side golden is the arena's golden row
   when the configuration stays on the static schedule (fault runs
   themselves always need the kernel or the interpreter — injection is
   dynamic).  The differential suite pins that row against [Simulate]
   on the full observation, so classification is unchanged. *)
let run_goldens ~config ~plan m =
  let golden_k =
    match Sched.compilable ~config m with
    | Ok () -> fst (Batch.golden_with (plan_exn ~plan m) [])
    | Error _ ->
      (Simulate.run_cfg ~config:{ config with Simulate.watchdog = true } m)
        .Simulate.obs
  in
  (golden_k, Interp.run m)

(* The artifact holds only the goldens: a checkpoint is one golden-row
   run away at any boundary, which is cheaper than parsing it and far
   smaller than storing its observation prefix. *)
let prepare ?(config = Simulate.default) ?plan (m : Model.t) =
  let plan = make_plan ?plan m in
  let golden_k, golden_i = run_goldens ~config ~plan m in
  { Artifact.digest = Snapshot.digest_of_model m;
    config = Journal.config_tag config; golden_k; golden_i }

(* [kernel_faults] are the faults the campaign sends to the kernel
   path, the only runs that read a checkpoint's observation prefix.  A
   batched variant joins from the arena's golden row at the boundary
   the restore rule names ([batch_spec]), so the campaign builds
   checkpoints for the kernel-path boundaries alone, warm or cold, from
   the compile its goldens use — same boundaries, same bytes. *)
let make_ctx ~config ?budget ?plan:plan0 ?golden ~restore ~kernel_faults
    (m : Model.t) =
  let plan = make_plan ?plan:plan0 m in
  let legs = legs_of ~plan m in
  (* Checkpoints are only sound when the golden kernel state equals
     the interpreter state at every boundary — true under [Record]
     (the differential suite pins it); [Halt]/[Degrade] goldens
     diverge, so those campaigns re-simulate from step 0. *)
  let restore_on = restore && config.Simulate.on_illegal = Simulate.Record in
  let golden_k, golden_i =
    match golden with
    | Some (a : Artifact.t) ->
      if
        a.Artifact.digest <> Snapshot.digest_of_model m
        || a.Artifact.config <> Journal.config_tag config
      then
        invalid_arg
          (Printf.sprintf
             "Campaign: golden artifact (digest %s, config %s) does not \
              match this campaign"
             a.Artifact.digest a.Artifact.config);
      (a.Artifact.golden_k, a.Artifact.golden_i)
    | None -> run_goldens ~config ~plan m
  in
  let checkpoints = Hashtbl.create 16 in
  if restore_on then (
    match boundaries_of ~faults:kernel_faults legs with
    | [] -> ()
    | bs ->
      List.iter
        (fun (s : Snapshot.t) -> Hashtbl.replace checkpoints s.Snapshot.step s)
        (golden_snapshots ~plan m bs));
  { m; config; golden_k = golden_of golden_k; golden_i = golden_of golden_i;
    same_golden = Observation.equal golden_k golden_i; legs;
    law = Simulate.expected_cycles m; restore_on; checkpoints;
    ck_lock = Mutex.create ();
    built = Atomic.make (Hashtbl.length checkpoints); budget; plan }

(* [Simulate.expected_cycles_from ctx.m s0], off the law computed once *)
let law_from ctx s0 = ctx.law - (Phase.count * s0)

let kernel_entry ~ctx ~snap inj =
  (* campaigns always arm the watchdog: a fault that stalls the
     controller must classify as Hung, not hang the campaign *)
  let config = { ctx.config with Simulate.watchdog = true } in
  let full_expected = ctx.law in
  let run () =
    match snap with
    | Some from ->
      ( Simulate.resume ~inject:inj ~config ~digest:from.Snapshot.digest
          ~from ctx.m,
        law_from ctx from.Snapshot.step )
    | None -> (Simulate.run_cfg ~inject:inj ~config ctx.m, full_expected)
  in
  match run () with
  | r, expected ->
    (match r.Simulate.outcome with
     | Simulate.Watchdog_tripped c ->
       (Hung (Printf.sprintf "watchdog tripped after %d cycles" c),
        r.Simulate.cycles, expected)
     | Simulate.Kernel_overflow ov ->
       (Hung (Format.asprintf "%a" Csrtl_kernel.Types.pp_delta_overflow ov),
        r.Simulate.cycles, expected)
     | Simulate.Finished | Simulate.Halted _ ->
       (classify_against ctx.golden_k r.Simulate.obs, r.Simulate.cycles,
        expected))
  | exception e -> (Crashed (Printexc.to_string e), 0, full_expected)

let interp_entry ~ctx ~snap inj =
  let run () =
    match snap with
    | Some from ->
      Interp.resume ~digest:from.Snapshot.digest ~inject:inj ~from ctx.m
    | None -> Interp.run ~inject:inj ctx.m
  in
  match run () with
  | o -> classify_against ctx.golden_i o
  | exception Interp.Unstable (step, phase, sink) ->
    (* the kernel path livelocks on the same fault and trips the
       watchdog: both paths classify as hung *)
    Hung
      (Printf.sprintf "no fixpoint at step %d phase %s on %s" step
         (Phase.to_string phase) sink)
  | exception e -> Crashed (Printexc.to_string e)

(* The boundary a fault's run starts from: the latest golden boundary
   strictly before the fault can first act ({!Fault.first_step} is a
   sound lower bound) when restoring is on, else reset. *)
let join_of ~ctx fault =
  let b = boundary_in ctx.legs fault in
  if ctx.restore_on && b >= 1 then b else 0

(* Both engines resume from the golden checkpoint at [join_of],
   skipping the steps the fault provably cannot touch.  Kernel-path
   faults find theirs prebuilt; a batched fault needs one only when its
   chunk falls back to the kernel path or its interpreter side reruns,
   and then computes it on first use, under the lock, so every such
   fault still restores from its own boundary.  The capture runs on
   this domain's arena, which may have just served the chunk being
   classified; its results are copies ({!Batch.run_with}), so
   rebinding the arena cannot change them. *)
let checkpoint_for ~ctx fault =
  match join_of ~ctx fault with
  | 0 -> None
  | b ->
    Mutex.protect ctx.ck_lock (fun () ->
        match Hashtbl.find_opt ctx.checkpoints b with
        | Some _ as s -> s
        | None ->
          let s =
            List.hd
              (golden_snapshots ~plan:ctx.plan ctx.m [ b ])
          in
          Hashtbl.replace ctx.checkpoints b s;
          Atomic.incr ctx.built;
          Some s)

let entry_of_fault ~ctx fault =
  let inj = Fault.to_inject fault in
  let snap = checkpoint_for ~ctx fault in
  let kernel_outcome, kernel_cycles, expected = kernel_entry ~ctx ~snap inj in
  let interp_outcome = interp_entry ~ctx ~snap inj in
  let law_ok =
    (* the delta-cycle law must keep holding when the fault is
       masked; the one-cycle slack covers the trailing
       driver-release edge an injection can add or remove *)
    match kernel_outcome with
    | Masked -> abs (kernel_cycles - expected) <= 1
    | _ -> true
  in
  { fault; kernel_outcome; interp_outcome; kernel_cycles; law_ok }

(* One fault run under supervision: a raise is retried once and then
   classified as Crashed, a budget overrun as Hung — the campaign and
   the pool keep going either way.  [entry_of_fault] already fences
   per-engine exceptions, so the supervisor only sees failures of the
   harness itself (e.g. [Out_of_memory]). *)
let supervised_entry ~ctx fault =
  match
    Csrtl_par.Par.run_supervised ?budget:ctx.budget ~retries:1 (fun () ->
        entry_of_fault ~ctx fault)
  with
  | Csrtl_par.Par.Done e -> e
  | Csrtl_par.Par.Crashed { error; _ } ->
    { fault; kernel_outcome = Crashed error; interp_outcome = Crashed error;
      kernel_cycles = 0; law_ok = true }
  | Csrtl_par.Par.Over_budget { budget; _ } ->
    let why = Printf.sprintf "work budget of %gs exceeded" budget in
    { fault; kernel_outcome = Hung why; interp_outcome = Hung why;
      kernel_cycles = 0; law_ok = true }

(* ---- the batched fast path ------------------------------------- *)

type engine = [ `Auto | `Kernel | `Compiled ]

type batch_stats = {
  batched : int;
  kernel_path : int;
  retired_early : int;
  detected_early : int;
  merged : int;
  checkpoints : int;
  domains : int;
}

let no_stats =
  { batched = 0; kernel_path = 0; retired_early = 0; detected_early = 0;
    merged = 0; checkpoints = 0; domains = 0 }

let add_stats a b =
  { batched = a.batched + b.batched;
    kernel_path = a.kernel_path + b.kernel_path;
    retired_early = a.retired_early + b.retired_early;
    detected_early = a.detected_early + b.detected_early;
    merged = a.merged + b.merged;
    checkpoints = a.checkpoints + b.checkpoints;
    domains = a.domains + b.domains }

(* A fault rides the batched executor when its injection has a static
   schedule under this campaign's config — the same gate the golden
   takes, evaluated per overlay. *)
let batchable ~config m f =
  Sched.compilable ~inject:(Fault.to_inject f) ~config m = Ok ()

(* The variant spec mirrors the kernel path decision for the same
   fault: join at the boundary [kernel_entry] would restore a snapshot
   from, else run from reset. *)
let batch_spec ~ctx f =
  { Batch.inject = Fault.to_inject f; join = join_of ~ctx f;
    settle = Fault.last_step_in ctx.legs f }

(* Entry from a batched verdict, byte-compatible with what
   [entry_of_fault] computes for the same fault: a retired variant's
   observation provably equals the golden one, so both engines
   classify it masked without materializing it; a finished variant's
   observation classifies against each engine's own golden (the
   differential suite pins the batched observation against both
   engines) — once, when the two goldens are equal.  Against the
   kernel golden, which is the arena's golden row, a finished variant
   has no new conflict (early detection would have stopped it), so its
   witness alone decides it.  A detected
   variant stopped at its diagnosis point against the arena's golden,
   which is the kernel golden; when the interpreter golden differs the
   truncated run says nothing about it, so that side reruns the
   fault on the interpreter.  The cycle count is the law's prediction
   — which the suite pins against the cycles the kernel actually
   runs. *)
let entry_of_verdict ~ctx fault (spec : Batch.variant_spec)
    (r : Batch.result) =
  let kernel_outcome, interp_outcome =
    match r.Batch.verdict with
    | Batch.Converged _ -> (Masked, Masked)
    | Batch.Detected (s, p, n) ->
      let k = Detected (s, p, n) in
      ( k,
        if ctx.same_golden then k
        else
          interp_entry ~ctx ~snap:(checkpoint_for ~ctx fault)
            spec.Batch.inject )
    | Batch.Finished obs ->
      let k = witness_against ctx.golden_k obs in
      (k, if ctx.same_golden then k else classify_against ctx.golden_i obs)
  in
  let law_ok =
    match kernel_outcome with
    | Masked ->
      abs (r.Batch.cycles - law_from ctx spec.Batch.join) <= 1
    | _ -> true
  in
  { fault; kernel_outcome; interp_outcome; kernel_cycles = r.Batch.cycles;
    law_ok }

(* One unit of campaign work: a lockstep batch of compilable faults,
   or a single fault on the kernel path. *)
type work =
  | Chunk of (int * Fault.t) list
  | Single of (int * Fault.t)

let plan_work ~config ~engine ~batch m indexed =
  if batch < 1 then
    invalid_arg (Printf.sprintf "Campaign: batch size %d < 1" batch);
  let work =
    match engine with
    | `Kernel -> List.map (fun x -> Single x) indexed
    | `Auto | `Compiled ->
      let fast, slow =
        List.partition (fun (_, f) -> batchable ~config m f) indexed
      in
      let rec chunk acc = function
        | [] -> List.rev acc
        | l ->
          let rec take n = function
            | x :: rest when n > 0 ->
              let t, d = take (n - 1) rest in
              (x :: t, d)
            | rest -> ([], rest)
          in
          let c, rest = take batch l in
          chunk (Chunk c :: acc) rest
      in
      chunk [] fast @ List.map (fun x -> Single x) slow
  in
  (* keep work in fault order by first index, so sequential runs and
     journals visit faults in a predictable order *)
  let first = function
    | Chunk ((i, _) :: _) -> i
    | Chunk [] -> max_int
    | Single (i, _) -> i
  in
  List.sort (fun a b -> compare (first a) (first b)) work

let kernel_faults work =
  List.filter_map (function Single (_, f) -> Some f | Chunk _ -> None) work

(* A batch that crashes or overruns the budget falls back to the
   per-fault kernel path, whose entries the batched ones are
   byte-compatible with — so pathological chunks degrade to exactly
   the unbatched campaign. *)
let compute_work ~ctx ~on_entry = function
  | Single (i, f) ->
    let e = supervised_entry ~ctx f in
    on_entry i e;
    ([ (i, e) ], { no_stats with kernel_path = 1 })
  | Chunk ifs ->
    let specs = List.map (fun (_, f) -> batch_spec ~ctx f) ifs in
    (match
       Csrtl_par.Par.run_supervised ?budget:ctx.budget ~retries:1 (fun () ->
           (* the shared plan: chunk N + 1 reuses chunk N's compile and
              this domain's arena instead of recompiling the model *)
           match ctx.plan with
           | Some p -> Batch.run_with p specs
           | None -> Batch.run ctx.m specs)
     with
     | Csrtl_par.Par.Done results ->
       let entries =
         List.map2
           (fun (i, f) (spec, r) -> (i, entry_of_verdict ~ctx f spec r))
           ifs (List.combine specs results)
       in
       List.iter (fun (i, e) -> on_entry i e) entries;
       let count p =
         List.length
           (List.filter (fun (r : Batch.result) -> p r.Batch.verdict) results)
       in
       ( entries,
         { no_stats with
           batched = List.length ifs;
           retired_early =
             count (function Batch.Converged _ -> true | _ -> false);
           detected_early =
             count (function Batch.Detected _ -> true | _ -> false);
           merged =
             List.length
               (List.filter (fun (r : Batch.result) -> r.Batch.merged) results)
         } )
     | Csrtl_par.Par.Crashed _ | Csrtl_par.Par.Over_budget _ ->
       let entries =
         List.map
           (fun (i, f) ->
             let e = supervised_entry ~ctx f in
             on_entry i e;
             (i, e))
           ifs
       in
       (entries, { no_stats with kernel_path = List.length ifs }))

let summarize (m : Model.t) entries =
  let count p = List.length (List.filter p entries) in
  let masked = count (fun e -> e.kernel_outcome = Masked) in
  let detected =
    count (fun e -> match e.kernel_outcome with Detected _ -> true | _ -> false)
  in
  let corrupted =
    count (fun e ->
        match e.kernel_outcome with Corrupted _ -> true | _ -> false)
  in
  let hung =
    count (fun e -> match e.kernel_outcome with Hung _ -> true | _ -> false)
  in
  let crashed =
    count (fun e -> match e.kernel_outcome with Crashed _ -> true | _ -> false)
  in
  let total = List.length entries in
  let coverage =
    if total - masked = 0 then None
    else Some (float_of_int detected /. float_of_int (total - masked))
  in
  { model = m.Model.name; total; masked; detected; corrupted; hung; crashed;
    disagreements =
      count (fun e -> not (outcomes_agree e.kernel_outcome e.interp_outcome));
    law_violations = count (fun e -> not e.law_ok);
    coverage;
    entries }

let fault_list ?limit ?faults m =
  match faults with Some fs -> fs | None -> Fault.enumerate ?limit m

(* Domains of the pool's last map that ran at least one item. *)
let busy_domains p =
  Array.fold_left
    (fun n (w : Csrtl_par.Par.worker_stat) ->
      if w.Csrtl_par.Par.w_items > 0 then n + 1 else n)
    0 (Csrtl_par.Par.last_stats p)

(* Shard the planned work across domains (or run it inline), count the
   domains that ran it, then reassemble entries in fault order — the
   report is independent of jobs and batch size.  A caller's pool fans
   out at once, at {!Csrtl_par.Par.map}'s default chunking.  Otherwise
   the gate in {!Csrtl_par.Par.map_gated} runs items inline and spawns
   a pool of [jobs] only once their measured time says the rest repays
   it: a batched fault costs about a tenth of a golden run, so most
   campaigns finish before that.  Either way results are placed by
   input index (the pool's contract), so reports stay deterministic.
   [should_stop] is polled before each work item: once it answers true,
   remaining items are skipped (their faults simply produce no entry),
   which is how a daemon drains an in-flight campaign to its journal
   checkpoint without killing the pool.  Completed items are never
   discarded, so a drained campaign plus its resumption is
   byte-identical to an uninterrupted one. *)
let compute_all ?pool ?jobs ?(should_stop = fun () -> false) ~ctx ~on_entry
    work =
  let compute w =
    if should_stop () then ([], no_stats) else compute_work ~ctx ~on_entry w
  in
  let results, domains =
    match pool with
    | Some p ->
      (* the stats are the map's own only once it has run: a tuple's
         components evaluate right to left *)
      let results = Csrtl_par.Par.map p compute work in
      (results, busy_domains p)
    | None ->
      let cores = Csrtl_par.Par.available_parallelism () in
      let jobs = Option.value jobs ~default:cores in
      Csrtl_par.Par.map_gated ~width:(min jobs cores) compute work
  in
  let entries =
    List.sort
      (fun (i, _) (j, _) -> compare (i : int) j)
      (List.concat_map fst results)
  in
  ( entries,
    { (List.fold_left (fun a (_, s) -> add_stats a s) no_stats results) with
      checkpoints = Atomic.get ctx.built; domains } )

(* Plan the campaign's work, then build the context its kernel-path
   items need. *)
let setup ~config ?budget ?plan ?golden ~restore ~engine ~batch m indexed =
  let work = plan_work ~config ~engine ~batch m indexed in
  let ctx =
    make_ctx ~config ?budget ?plan ?golden ~restore
      ~kernel_faults:(kernel_faults work) m
  in
  (ctx, work)

let run_with_stats ?pool ?jobs ?(config = Simulate.default) ?limit ?faults
    ?budget ?(restore = true) ?(engine : engine = `Auto) ?(batch = 32) ?plan
    ?golden (m : Model.t) =
  let faults = fault_list ?limit ?faults m in
  (* goldens and checkpoints computed once in the caller and shared
     read-only with every domain; each faulted run owns all its
     mutable state *)
  let ctx, work =
    setup ~config ?budget ?plan ?golden ~restore ~engine ~batch m
      (List.mapi (fun i f -> (i, f)) faults)
  in
  let entries, stats =
    compute_all ?pool ?jobs ~ctx ~on_entry:(fun _ _ -> ()) work
  in
  (summarize m (List.map snd entries), stats)

let run ?pool ?jobs ?config ?limit ?faults ?budget ?restore ?engine ?batch
    ?plan ?golden (m : Model.t) =
  fst
    (run_with_stats ?pool ?jobs ?config ?limit ?faults ?budget ?restore
       ?engine ?batch ?plan ?golden m)

type resume_info = {
  reused : int;
  rerun : int;
  torn : int;
  remaining : int;
  domains : int;
}

let run_journaled ?pool ?jobs ?(config = Simulate.default) ?digest
    ?limit ?faults ?budget ?(restore = true) ?(engine : engine = `Auto)
    ?(batch = 32) ?warm ?should_stop ?on_entry:user_on_entry ~journal
    ~resume (m : Model.t) =
  let faults = fault_list ?limit ?faults m in
  let labels = List.map Fault.to_string faults in
  let total = List.length faults in
  let header =
    { Journal.model = m.Model.name;
      digest =
        (match digest with
         | Some d -> d
         | None -> Snapshot.digest_of_model m);
      config = Journal.config_tag config;
      total;
      faults_digest = Journal.faults_digest labels }
  in
  let fault_arr = Array.of_list faults in
  let label_arr = Array.of_list labels in
  let reuse =
    if not resume then Ok ([], 0)
    else
      match Journal.read journal with
      | Error msg ->
        Error (Printf.sprintf "cannot resume from %s: %s" journal msg)
      | Ok (h, entries, torn) ->
        if h <> header then
          Error
            (Printf.sprintf
               "journal %s was written for a different campaign: it records \
                model %s, %d faults, config %s, but this run is model %s, %d \
                faults, config %s"
               journal h.Journal.model h.Journal.total h.Journal.config
               header.Journal.model header.Journal.total header.Journal.config)
        else
          (* an entry whose label disagrees with the fault at its
             index is as untrustworthy as a torn line *)
          let good, bad =
            List.partition
              (fun (e : Journal.entry) ->
                e.Journal.fault_label = label_arr.(e.Journal.index))
              entries
          in
          Ok (good, torn + List.length bad)
  in
  match reuse with
  | Error _ as e -> e
  | Ok (reused_entries, torn) ->
    let done_tbl = Hashtbl.create 64 in
    List.iter
      (fun (e : Journal.entry) -> Hashtbl.replace done_tbl e.Journal.index e)
      reused_entries;
    let todo =
      List.filter
        (fun i -> not (Hashtbl.mem done_tbl i))
        (List.init total Fun.id)
    in
    let w =
      if resume then Journal.reopen journal header
      else Journal.start journal header
    in
    Fun.protect ~finally:(fun () -> Journal.close w) @@ fun () ->
    (* a wholesale replay computes nothing, so it builds nothing: no
       plan, no goldens, no checkpoints, and no fsync, since there is
       nothing new to pin *)
    let computed, domains =
      if todo = [] then ([], 0)
      else begin
        let plan, golden =
          match warm with Some f -> f () | None -> (None, None)
        in
        let ctx, work =
          (* checkpoints only for the faults actually re-run *)
          setup ~config ?budget ?plan ?golden ~restore ~engine ~batch m
            (List.map (fun i -> (i, fault_arr.(i))) todo)
        in
        (* every finished fault is journaled before its work item
           returns — batched chunks append their entries as a group, so
           a crash loses at most the chunk in flight.  The user callback
           (a daemon streaming entries to its client) fires after the
           journal write: a streamed entry is always recoverable from
           disk *)
        let on_entry i (e : entry) =
          Journal.append w
            { Journal.index = i; fault_label = label_arr.(i);
              kernel = e.kernel_outcome; interp = e.interp_outcome;
              cycles = e.kernel_cycles; law_ok = e.law_ok };
          match user_on_entry with None -> () | Some f -> f i e
        in
        let computed, stats =
          compute_all ?pool ?jobs ?should_stop ~ctx ~on_entry work
        in
        Journal.sync w;
        (computed, stats.domains)
      end
    in
    let computed_tbl = Hashtbl.create 64 in
    List.iter
      (fun (i, e) -> Hashtbl.replace computed_tbl i e)
      computed;
    (* a drained run leaves faults with neither a reused nor a computed
       entry; they are simply absent from the (partial) report and
       counted in [remaining] *)
    let entries =
      List.filter_map
        (fun i ->
          match Hashtbl.find_opt computed_tbl i with
          | Some e -> Some e
          | None ->
            (match Hashtbl.find_opt done_tbl i with
             | Some je ->
               Some
                 { fault = fault_arr.(i);
                   kernel_outcome = je.Journal.kernel;
                   interp_outcome = je.Journal.interp;
                   kernel_cycles = je.Journal.cycles;
                   law_ok = je.Journal.law_ok }
             | None -> None))
        (List.init total Fun.id)
    in
    let rerun = List.length computed in
    Ok
      ( summarize m entries,
        { reused = List.length reused_entries; rerun; torn;
          remaining = total - List.length reused_entries - rerun;
          domains } )

let pp_outcome = Outcome.pp

let pp_entry ppf e =
  Format.fprintf ppf "@[<h>%-50s kernel: %a | interp: %a%s@]"
    (Fault.to_string e.fault) pp_outcome e.kernel_outcome pp_outcome
    e.interp_outcome
    (if outcomes_agree e.kernel_outcome e.interp_outcome then ""
     else "  << DISAGREE")

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>fault campaign: %s (%d faults)@ \
     masked %d | detected %d | corrupted %d | hung %d | crashed %d@ \
     coverage (detected / non-masked): %s@ \
     kernel/interp agreement: %d/%d@ \
     delta-cycle law on masked runs: %s@]"
    r.model r.total r.masked r.detected r.corrupted r.hung r.crashed
    (match r.coverage with
     | None -> "n/a (all faults masked)"
     | Some c -> Printf.sprintf "%.1f%%" (100. *. c))
    (r.total - r.disagreements)
    r.total
    (if r.law_violations = 0 then "held"
     else Printf.sprintf "%d violations" r.law_violations)

(* ---- report text, built without [Format] ------------------------ *)

(* [pp_entry]'s line: the label left-justified in 50 columns, as
   [%-50s] pads it *)
let add_entry b e =
  let label = Fault.to_string e.fault in
  Buffer.add_string b label;
  for _ = String.length label + 1 to 50 do
    Buffer.add_char b ' '
  done;
  Buffer.add_string b " kernel: ";
  Buffer.add_string b (Outcome.to_string e.kernel_outcome);
  Buffer.add_string b " | interp: ";
  Buffer.add_string b (Outcome.to_string e.interp_outcome);
  if not (outcomes_agree e.kernel_outcome e.interp_outcome) then
    Buffer.add_string b "  << DISAGREE"

let render_report ~table r =
  let b = Buffer.create (if table then 128 * (r.total + 4) else 512) in
  if table then
    List.iter
      (fun e ->
        add_entry b e;
        Buffer.add_char b '\n')
      r.entries;
  Buffer.add_string b (Format.asprintf "%a" pp_report r);
  Buffer.add_char b '\n';
  Buffer.contents b
