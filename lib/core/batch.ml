(* Lockstep execution of K fault variants plus the golden run over the
   shared static schedule, on a structure-of-arrays arena.

   All per-variant machine state lives in flat unboxed-int arrays, one
   contiguous row per variant (row 0 is the golden run): sink values,
   registers, FU pipelines, traces and output writes are all
   [row * stride + index] into a handful of big [int array]s, so the
   lockstep inner loop walks memory linearly and allocates nothing —
   no per-step boxing, no GC traffic, no pointer chasing across K
   heap-separate rows.  The arena itself is cached per domain
   ({!Domain.DLS}) and rebound per chunk, so a campaign's thousands of
   chunks reuse one allocation per worker.

   The step function is the same slot walk as {!Compiled}'s, and the
   differential suite pins the two executors (and the kernel, and the
   interpreter) against each other on the full observation. *)

type variant_spec = { inject : Inject.t; join : int; settle : int }

type verdict =
  | Finished of Observation.t
  | Converged of int
  | Detected of int * Phase.t * string

type result = { verdict : verdict; cycles : int }

(* A reusable compile of the golden schedule plus the per-unit
   profiles — everything about the model that is shared, read-only,
   across every chunk and every domain of a campaign. *)
type plan = {
  pmodel : Model.t;
  base : Sched.t;
  profs : Fu_state.profile array;
  legs : Legs.t;
  pid : int;
}

let plan_ids = Atomic.make 0

let plan (m : Model.t) =
  Model.validate_exn m;
  let base = Sched.compile m in
  { pmodel = m; base;
    profs =
      Array.map
        (fun (p : Sched.fu_plan) -> Fu_state.profile p.Sched.fu)
        base.Sched.fu_plans;
    legs = Legs.of_model m;
    pid = Atomic.fetch_and_add plan_ids 1 }

let base_sched p = p.base
let legs p = p.legs

(* Variant lifecycle, encoded in an int so the dispatch loop reads a
   flat array: -3 detected, -2 waiting to join, -1 running, s >= 0
   retired at s. *)
let st_detected = -3
let st_waiting = -2
let st_running = -1

(* Placeholder of [v_found] for rows not detected. *)
let no_conflict = (0, Phase.Ra, "")

type arena = {
  pid : int;
  ns : int;  (* sinks *)
  nr : int;  (* registers *)
  nf : int;  (* functional units *)
  np : int;  (* output ports *)
  cs : int;  (* cs_max *)
  rows : int;  (* row capacity, golden included *)
  mutable profs : Fu_state.profile array;
  (* -- sink state, stride [ns] -- *)
  visible : Word.t array;
  acc : Word.t array;
  in_pending : Bytes.t;
  (* pend/live double buffer: per-row id scratch, swapped by pointer *)
  pend_ids : int array array;
  live_ids : int array array;
  pend_n : int array;
  live_n : int array;
  (* -- register state, stride [nr] -- *)
  regs : Word.t array;
  reg_vis : Word.t array;
  (* -- unit state -- *)
  fu_out : Word.t array;  (* stride [nf] *)
  fu_lat : int array;  (* stride [nf]: this row's pipeline depth *)
  mutable fu_cap : int array;  (* shared per-unit slot capacity *)
  mutable fu_off : int array;  (* nf + 1 prefix sums of [fu_cap] *)
  mutable fu_row : int;  (* = fu_off.(nf) *)
  mutable fu_slots : Word.t array;  (* stride [fu_row] *)
  (* -- observables -- *)
  traces : Word.t array;  (* (row * nr + reg) * cs + (step - 1) *)
  out_steps : int array;  (* (row * np + port) * cs + write index *)
  out_vals : Word.t array;
  out_n : int array;  (* stride [np] *)
  conflicts : (int * Phase.t * string) list array;  (* per row *)
  (* -- per-row dispatch state (index 0 unused except [scheds]) -- *)
  scheds : Sched.t array;
  v_join : int array;
  v_settle : int array;
  v_retire : int array;
  v_state : int array;
  v_dirty : Bytes.t;
      (* an already-recorded observable (trace cell, output write)
         differs from the golden row's: the final observation cannot
         equal the golden one, so retirement is off the table *)
  v_found : (int * Phase.t * string) array;
      (* a detected row's diagnosis point, its least conflict the
         golden row lacks; read only in that state *)
}

let make_arena (plan : plan) rows =
  let b = plan.base in
  let ns = b.Sched.nsinks and nr = b.Sched.nregs in
  let nf = Array.length b.Sched.fu_plans in
  let np = Array.length b.Sched.out_sink in
  let cs = plan.pmodel.Model.cs_max in
  let fu_cap =
    Array.map
      (fun (p : Sched.fu_plan) -> p.Sched.fu.Model.latency)
      b.Sched.fu_plans
  in
  let fu_off = Array.make (nf + 1) 0 in
  for f = 0 to nf - 1 do
    fu_off.(f + 1) <- fu_off.(f) + fu_cap.(f)
  done;
  let fu_row = fu_off.(nf) in
  { pid = plan.pid; ns; nr; nf; np; cs; rows;
    profs = plan.profs;
    visible = Array.make (rows * ns) Word.disc;
    acc = Array.make (rows * ns) Word.disc;
    in_pending = Bytes.make (max (rows * ns) 1) '\000';
    pend_ids = Array.init rows (fun _ -> Array.make ns 0);
    live_ids = Array.init rows (fun _ -> Array.make ns 0);
    pend_n = Array.make rows 0;
    live_n = Array.make rows 0;
    regs = Array.make (rows * nr) Word.disc;
    reg_vis = Array.make (rows * nr) Word.disc;
    fu_out = Array.make (rows * nf) Word.disc;
    fu_lat = Array.make (rows * nf) 0;
    fu_cap; fu_off; fu_row;
    fu_slots = Array.make (rows * fu_row) Word.disc;
    traces = Array.make (rows * nr * cs) Word.disc;
    out_steps = Array.make (rows * np * cs) 0;
    out_vals = Array.make (rows * np * cs) Word.disc;
    out_n = Array.make (rows * np) 0;
    conflicts = Array.make rows [];
    scheds = Array.make rows b;
    v_join = Array.make rows 0;
    v_settle = Array.make rows 0;
    v_retire = Array.make rows 0;
    v_state = Array.make rows st_waiting;
    v_dirty = Bytes.make rows '\000';
    v_found = Array.make rows no_conflict }

(* One arena per domain, rebound in place chunk after chunk as long as
   the campaign keeps the same plan and the batch fits.  Domain-local,
   so pool workers never share scratch; callers that multiplex
   system threads on one domain must serialize their campaigns (the
   serve daemon's admission control already does). *)
let arena_slot : arena option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let get_arena (plan : plan) k =
  let slot = Domain.DLS.get arena_slot in
  let rows = k + 1 in
  match !slot with
  | Some a when a.pid = plan.pid && a.rows >= rows ->
    a.profs <- plan.profs;
    a
  | _ ->
    let a = make_arena plan rows in
    slot := Some a;
    a

(* First boundary from which every remaining slot — including the
   boundary step's own (step, wb) slot, whose drivers are the live set
   crossing it — is the golden array: the least [step] whose (step, wb)
   slot lies past the overlay's highest patched slot, capped at
   [cs_max + 1]. *)
let retire_from_of (m : Model.t) last_patched =
  let wb = Phase.to_int Phase.Wb in
  let step =
    if last_patched < wb then 1 else ((last_patched - wb) / Phase.count) + 2
  in
  min step (m.Model.cs_max + 1)

(* Bind K specs onto the arena: overlay schedules, per-row pipeline
   depths (growing the shared slot capacity under a latency override),
   and a full state reset of rows 0..K.  Everything here is per-chunk
   cost — the step loop below does the per-step work. *)
let bind (plan : plan) specs =
  let m = plan.pmodel in
  List.iter
    (fun { inject; join; settle = _ } ->
      (match Compiled.compilable ~inject m with
       | Ok () -> ()
       | Error why ->
         invalid_arg (Printf.sprintf "Batch: model %s: %s" m.Model.name why));
      if join < 0 || join > m.Model.cs_max then
        invalid_arg
          (Printf.sprintf "Batch: join boundary %d outside [0, %d]" join
             m.Model.cs_max))
    specs;
  let k = List.length specs in
  let a = get_arena plan k in
  a.scheds.(0) <- plan.base;
  List.iteri
    (fun i spec ->
      let sched = Sched.overlay plan.base spec.inject in
      a.scheds.(i + 1) <- sched;
      a.v_join.(i + 1) <- spec.join;
      a.v_settle.(i + 1) <- spec.settle;
      a.v_retire.(i + 1) <- retire_from_of m sched.Sched.last_patched;
      a.v_state.(i + 1) <-
        (if spec.join = 0 then st_running else st_waiting))
    specs;
  Bytes.fill a.v_dirty 0 (k + 1) '\000';
  (* pipeline depths; a latency override above the shared capacity
     grows every row's unit region (rare: one realloc per campaign) *)
  let grew = ref false in
  for r = 0 to k do
    let plans = a.scheds.(r).Sched.fu_plans in
    for f = 0 to a.nf - 1 do
      let lat = plans.(f).Sched.fu.Model.latency in
      a.fu_lat.((r * a.nf) + f) <- lat;
      if lat > a.fu_cap.(f) then begin
        a.fu_cap.(f) <- lat;
        grew := true
      end
    done
  done;
  if !grew then begin
    for f = 0 to a.nf - 1 do
      a.fu_off.(f + 1) <- a.fu_off.(f) + a.fu_cap.(f)
    done;
    a.fu_row <- a.fu_off.(a.nf);
    a.fu_slots <- Array.make (a.rows * a.fu_row) Word.disc
  end;
  (* state reset of the bound rows *)
  let nrows = k + 1 in
  Array.fill a.visible 0 (nrows * a.ns) Word.disc;
  Array.fill a.acc 0 (nrows * a.ns) Word.disc;
  if a.ns > 0 then Bytes.fill a.in_pending 0 (nrows * a.ns) '\000';
  Array.fill a.pend_n 0 nrows 0;
  Array.fill a.live_n 0 nrows 0;
  for r = 0 to k do
    let sch = a.scheds.(r) in
    Array.blit sch.Sched.reg_init 0 a.regs (r * a.nr) a.nr;
    for i = 0 to a.nr - 1 do
      a.reg_vis.((r * a.nr) + i) <- Sched.reg_view_init sch i
    done
  done;
  Array.fill a.fu_out 0 (nrows * a.nf) Word.disc;
  Array.fill a.fu_slots 0 (nrows * a.fu_row) Word.disc;
  Array.fill a.traces 0 (nrows * a.nr * a.cs) Word.disc;
  Array.fill a.out_n 0 (nrows * a.np) 0;
  Array.fill a.conflicts 0 nrows [];
  (a, k)

let phase_table = Array.of_list Phase.all
let cm_i = Phase.to_int Phase.Cm
let cr_i = Phase.to_int Phase.Cr

(* One control step of one row.  Zero allocation on the happy path:
   conflict records are the only conses, and only when a sink newly
   turns ILLEGAL. *)
let exec_row (a : arena) (sch : Sched.t) ~row ~step =
  let ns = a.ns in
  let sb = row * ns in
  let rb = row * a.nr in
  let fb = row * a.nf in
  for pi = 0 to Phase.count - 1 do
    let phase = phase_table.(pi) in
    (* flip: resolve last phase's contributions into this phase's
       visible values — live sinks not re-contributed release, pending
       sinks take their accumulated resolution, and a sink newly
       becoming ILLEGAL is localized as a conflict *)
    let live = a.live_ids.(row) in
    let ln = a.live_n.(row) in
    for i = 0 to ln - 1 do
      let s = live.(i) in
      if Bytes.get a.in_pending (sb + s) = '\000' then begin
        let v = Sched.resolve_release sch s ~step ~phase in
        if Word.is_illegal v && not (Word.is_illegal a.visible.(sb + s))
        then
          a.conflicts.(row) <-
            (step, phase, sch.Sched.sink_name.(s)) :: a.conflicts.(row);
        a.visible.(sb + s) <- v
      end
    done;
    let pend = a.pend_ids.(row) in
    let pn = a.pend_n.(row) in
    for i = 0 to pn - 1 do
      let s = pend.(i) in
      let v = Sched.resolve_value sch s ~step ~phase a.acc.(sb + s) in
      if Word.is_illegal v && not (Word.is_illegal a.visible.(sb + s)) then
        a.conflicts.(row) <-
          (step, phase, sch.Sched.sink_name.(s)) :: a.conflicts.(row);
      a.visible.(sb + s) <- v
    done;
    a.live_ids.(row) <- pend;
    a.live_n.(row) <- pn;
    a.pend_ids.(row) <- live;
    a.pend_n.(row) <- 0;
    for i = 0 to pn - 1 do
      let s = pend.(i) in
      Bytes.set a.in_pending (sb + s) '\000';
      a.acc.(sb + s) <- Word.disc
    done;
    (* this slot's contributions *)
    let acts = Sched.slot sch (((step - 1) * Phase.count) + pi) in
    for i = 0 to Array.length acts - 1 do
      let { Sched.src; dst } = acts.(i) in
      let v =
        match src with
        | Sched.Const w -> w
        | Sched.Reg r -> a.reg_vis.(rb + r)
        | Sched.Bus s -> a.visible.(sb + s)
        | Sched.Fu f -> a.fu_out.(fb + f)
      in
      if Bytes.get a.in_pending (sb + dst) = '\001' then
        a.acc.(sb + dst) <- Resolve.combine a.acc.(sb + dst) v
      else begin
        Bytes.set a.in_pending (sb + dst) '\001';
        a.acc.(sb + dst) <- v;
        let p = a.pend_ids.(row) in
        p.(a.pend_n.(row)) <- dst;
        a.pend_n.(row) <- a.pend_n.(row) + 1
      end
    done;
    if pi = cm_i then begin
      let fob = row * a.fu_row in
      for f = 0 to a.nf - 1 do
        let u = sch.Sched.fu_plans.(f) in
        a.fu_out.(fb + f) <-
          Fu_state.step_flat a.profs.(f) ~slots:a.fu_slots
            ~off:(fob + a.fu_off.(f))
            ~lat:a.fu_lat.(fb + f)
            ~op_index:a.visible.(sb + u.Sched.op_sink)
            a.visible.(sb + u.Sched.in1_sink)
            a.visible.(sb + u.Sched.in2_sink)
      done
    end
    else if pi = cr_i then begin
      for i = 0 to a.nr - 1 do
        let v = a.visible.(sb + sch.Sched.reg_in_sink.(i)) in
        if not (Word.is_disc v) then begin
          a.regs.(rb + i) <- v;
          a.reg_vis.(rb + i) <- Sched.reg_view_latch sch i ~step v
        end
      done;
      let ob = row * a.np in
      for o = 0 to a.np - 1 do
        let v = a.visible.(sb + sch.Sched.out_sink.(o)) in
        if not (Word.is_disc v) then begin
          let n = a.out_n.(ob + o) in
          a.out_steps.(((ob + o) * a.cs) + n) <- step;
          a.out_vals.(((ob + o) * a.cs) + n) <- v;
          a.out_n.(ob + o) <- n + 1
        end
      done;
      let tb = rb * a.cs in
      for i = 0 to a.nr - 1 do
        a.traces.(tb + (i * a.cs) + (step - 1)) <- a.reg_vis.(rb + i)
      done
    end
  done

(* Copy the golden row's state at boundary [b] into a variant — the
   in-memory equivalent of restoring a golden checkpoint: raw machine
   state verbatim, the register view re-resolved through the variant's
   tamper at its next visibility point (the kernel's resume rule), the
   conflict prefix in the snapshot's sorted order. *)
let join_row (a : arena) ~row ~boundary =
  let sb = row * a.ns and rb = row * a.nr and fb = row * a.nf in
  Array.blit a.visible 0 a.visible sb a.ns;
  Array.blit a.live_ids.(0) 0 a.live_ids.(row) 0 a.live_n.(0);
  a.live_n.(row) <- a.live_n.(0);
  a.pend_n.(row) <- 0;
  Array.blit a.regs 0 a.regs rb a.nr;
  let sch = a.scheds.(row) in
  for i = 0 to a.nr - 1 do
    a.reg_vis.(rb + i) <- Sched.reg_view_resume sch i ~boundary a.regs.(rb + i)
  done;
  Array.blit a.fu_out 0 a.fu_out fb a.nf;
  let fob = row * a.fu_row in
  for f = 0 to a.nf - 1 do
    let lat_g = a.fu_lat.(f) and lat_v = a.fu_lat.(fb + f) in
    if lat_g <> lat_v then
      (* the historical restore-from-snapshot error: a variant whose
         pipeline depth differs cannot adopt golden state (campaigns
         give latency overrides join = 0, so they never land here) *)
      invalid_arg
        (Printf.sprintf "Fu_state.restore: %s expects %d slots, got %d"
           sch.Sched.fu_plans.(f).Sched.fu.Model.fu_name lat_v lat_g);
    Array.blit a.fu_slots a.fu_off.(f) a.fu_slots (fob + a.fu_off.(f)) lat_g
  done;
  for i = 0 to a.nr - 1 do
    Array.blit a.traces (i * a.cs) a.traces ((rb + i) * a.cs) boundary
  done;
  for o = 0 to a.np - 1 do
    let n = a.out_n.(o) in
    Array.blit a.out_steps (o * a.cs) a.out_steps (((row * a.np) + o) * a.cs) n;
    Array.blit a.out_vals (o * a.cs) a.out_vals (((row * a.np) + o) * a.cs) n;
    a.out_n.((row * a.np) + o) <- n
  done;
  a.conflicts.(row) <- List.rev (Snapshot.sort_conflicts a.conflicts.(0))

let observation (a : arena) row =
  let m = a.scheds.(row).Sched.model in
  let rb = row * a.nr and ob = row * a.np in
  { Observation.model_name = m.Model.name; cs_max = m.Model.cs_max;
    regs =
      List.mapi
        (fun i (reg : Model.register) ->
          (reg.reg_name, Array.sub a.traces ((rb + i) * a.cs) a.cs))
        m.Model.registers;
    outputs =
      List.mapi
        (fun o name ->
          ( name,
            List.init a.out_n.(ob + o) (fun k ->
                ( a.out_steps.(((ob + o) * a.cs) + k),
                  a.out_vals.(((ob + o) * a.cs) + k) )) ))
        m.Model.outputs;
    conflicts = List.rev a.conflicts.(row) }

(* Helpers of [rows_equal], at top level so the per-step retirement
   check allocates no closures. *)
let rec eq_range (arr : Word.t array) base n i =
  i >= n || (Word.equal arr.(i) arr.(base + i) && eq_range arr base n (i + 1))

let rec slots_eq (slots : Word.t array) off0 offr lat i =
  i >= lat
  || (Word.equal slots.(off0 + i) slots.(offr + i)
      && slots_eq slots off0 offr lat (i + 1))

let rec fus_eq (a : arena) row fob f =
  f >= a.nf
  || (a.fu_lat.(f) = a.fu_lat.((row * a.nf) + f)
      && slots_eq a.fu_slots a.fu_off.(f) (fob + a.fu_off.(f)) a.fu_lat.(f) 0
      && fus_eq a row fob (f + 1))

(* State-row equality against the golden row, cheapest component
   first; all equal (with no observable delta accrued) means the rows
   cannot diverge again. *)
let rows_equal (a : arena) row =
  eq_range a.regs (row * a.nr) a.nr 0
  && eq_range a.reg_vis (row * a.nr) a.nr 0
  && eq_range a.fu_out (row * a.nf) a.nf 0
  && eq_range a.visible (row * a.ns) a.ns 0
  && fus_eq a row (row * a.fu_row) 0
  && (match (a.conflicts.(0), a.conflicts.(row)) with
     | [], [] -> true  (* the conflict-free fast path must not reach
                          [List.sort_uniq], which allocates its merge
                          closures even for empty input *)
     | c0, cr -> Snapshot.sort_conflicts c0 = Snapshot.sort_conflicts cr)

exception Obs_differs

(* Exact per-boundary check that the observables recorded {e this}
   step equal the golden row's; once any differs the flag latches and
   the variant must run to completion.  The constant exception keeps
   the check allocation-free (a [ref] cell would be a minor-heap
   allocation per variant per step). *)
let update_obs_dirty (a : arena) row ~step =
  if Bytes.get a.v_dirty row = '\000' then begin
    let rb = row * a.nr and ob = row * a.np in
    try
      for i = 0 to a.nr - 1 do
        if
          not
            (Word.equal
               a.traces.(((rb + i) * a.cs) + (step - 1))
               a.traces.((i * a.cs) + (step - 1)))
        then raise_notrace Obs_differs
      done;
      for o = 0 to a.np - 1 do
        let vn = a.out_n.(ob + o) and gn = a.out_n.(o) in
        if vn <> gn then raise_notrace Obs_differs
        else if
          vn > 0
          && a.out_steps.(((ob + o) * a.cs) + vn - 1) = step
          && not
               (Word.equal
                  a.out_vals.(((ob + o) * a.cs) + vn - 1)
                  a.out_vals.((o * a.cs) + gn - 1))
        then raise_notrace Obs_differs
      done
    with Obs_differs -> Bytes.set a.v_dirty row '\001'
  end

(* Early detection.  Conflicts are consed onto a row's list as they
   are recorded, so the ones a step recorded are the list cells in
   front of the cell that headed it before the step.  A conflict a
   variant recorded at step [s] is new to the golden run exactly when
   the golden row did not record the same (phase, sink) at [s] too. *)
let rec golden_recorded ((_, p, n) as c) g stop =
  g != stop
  && (match g with
      | [] -> false
      | (_, gp, gn) :: rest ->
        (Phase.equal gp p && String.equal gn n) || golden_recorded c rest stop)

let precedes (_, p1, n1) (_, p2, n2) =
  let c = Int.compare (Phase.to_int p1) (Phase.to_int p2) in
  c < 0 || (c = 0 && String.compare n1 n2 < 0)

(* The least of the step's new conflicts the golden lacks, in
   classification order (the step is shared, so phase then sink), or
   [best] if there is none. *)
let rec least_new best l stop ~g ~g_stop =
  if l == stop then best
  else
    match l with
    | [] -> best
    | c :: rest ->
      let best =
        if golden_recorded c g g_stop then best
        else if best == no_conflict || precedes c best then c
        else best
      in
      least_new best rest stop ~g ~g_stop

let run_arena (a : arena) k =
  let cs = a.cs in
  for step = 1 to cs do
    for r = 1 to k do
      if a.v_state.(r) = st_waiting && a.v_join.(r) = step - 1 then begin
        join_row a ~row:r ~boundary:(step - 1);
        a.v_state.(r) <- st_running
      end
    done;
    let g_stop = a.conflicts.(0) in
    exec_row a a.scheds.(0) ~row:0 ~step;
    let g = a.conflicts.(0) in
    for r = 1 to k do
      if a.v_state.(r) = st_running then begin
        let stop = a.conflicts.(r) in
        exec_row a a.scheds.(r) ~row:r ~step;
        let found =
          (* only a row that recorded a conflict this step pays for
             the check, so conflict-free steps stay allocation-free *)
          if a.conflicts.(r) == stop then no_conflict
          else least_new no_conflict a.conflicts.(r) stop ~g ~g_stop
        in
        if found != no_conflict then begin
          a.v_found.(r) <- found;
          a.v_state.(r) <- st_detected
        end
        else begin
          update_obs_dirty a r ~step;
          if
            Bytes.get a.v_dirty r = '\000'
            && step < cs
            && step >= a.v_settle.(r)
            && step >= a.v_retire.(r)
            && rows_equal a r
          then a.v_state.(r) <- step
        end
      end
    done
  done

let golden_with (plan : plan) specs =
  let a, k = bind plan specs in
  run_arena a k;
  let results =
    List.mapi
      (fun i spec ->
        let r = i + 1 in
        let verdict =
          let s = a.v_state.(r) in
          if s = st_running then Finished (observation a r)
          else if s = st_detected then
            let step, phase, sink = a.v_found.(r) in
            Detected (step, phase, sink)
          else if s = st_waiting then
            (* joined at the final boundary: the fault never acts, the
               observation is the golden one by construction *)
            Converged plan.pmodel.Model.cs_max
          else Converged s
        in
        { verdict;
          cycles =
            Simulate.expected_cycles_with plan.legs ~inject:spec.inject
              spec.join })
      specs
  in
  (observation a 0, results)

let run_with plan specs = snd (golden_with plan specs)

let golden (m : Model.t) specs = golden_with (plan m) specs

let run m specs = snd (golden m specs)

(* The pinned-law probe: minor-heap words allocated by the lockstep
   step loop alone — bind and result materialization excluded.  The
   scaling suite asserts this is 0 for conflict-free specs. *)
let alloc_probe plan specs =
  let a, k = bind plan specs in
  (* [Gc.minor_words] boxes its float result on the minor heap, so a
     naive before/after delta can never read 0.  Calibrate that
     overhead with an empty probe first and subtract it. *)
  let b0 = Gc.minor_words () in
  let b1 = Gc.minor_words () in
  let overhead = b1 -. b0 in
  let w0 = Gc.minor_words () in
  run_arena a k;
  let w1 = Gc.minor_words () in
  (w1 -. w0) -. overhead
