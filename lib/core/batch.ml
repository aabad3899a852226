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

   This is the one executor of the static schedule: a single golden
   run, its checkpoints and a resume from a snapshot are row 0 of a
   K = 0 binding, and the differential suites pin it against the
   kernel and the interpreter on the full observation. *)

type variant_spec = { inject : Inject.t; join : int; settle : int }

type verdict =
  | Finished of Observation.t
  | Converged of int
  | Detected of int * Phase.t * string

type result = { verdict : verdict; cycles : int; merged : bool; steps : int }

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
   flat array: -4 following another row (merged), -3 detected, -2
   waiting to join, -1 running, s >= 0 retired at s. *)
let st_following = -4
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
  v_lead : int array;
      (* the earlier row a row stopped at a boundary follows (0 for a
         retired row); -1 for a row that never stopped at one *)
  v_at : int array;  (* the boundary a row stopped stepping at *)
  v_full : Bytes.t;
      (* a stopped row's trace, output and conflict suffix has been
         copied in from its leader: its row holds its whole observation *)
  (* merge candidates of the current boundary: an open-addressing
     table of row ids keyed by state hash, a slot live when its stamp
     is the current [gen] — bumping [gen] empties it without a write *)
  tab_row : int array;
  tab_hash : int array;
  tab_gen : int array;
  tab_mask : int;
  mutable gen : int;
  mutable golden_in : bool;  (* row 0 is in the table this boundary *)
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
  (* a power of two at least twice the rows, so probing always ends *)
  let tab = ref 1 in
  while !tab < 2 * rows do
    tab := 2 * !tab
  done;
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
    v_found = Array.make rows no_conflict;
    v_lead = Array.make rows (-1);
    v_at = Array.make rows 0;
    v_full = Bytes.make rows '\000';
    tab_row = Array.make !tab 0;
    tab_hash = Array.make !tab 0;
    tab_gen = Array.make !tab 0;
    tab_mask = !tab - 1;
    gen = 0;
    golden_in = false }

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
      (match Sched.compilable ~inject m with
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
  a.v_state.(0) <- st_running;
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
  Array.fill a.v_lead 0 (k + 1) (-1);
  Bytes.fill a.v_full 0 (k + 1) '\000';
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

(* The register view of a row whose registers were just installed at
   [boundary]: each re-resolved through the row's tamper at its next
   visibility point — the kernel's resume rule, shared by a joining
   variant and a golden row resumed from a snapshot. *)
let resume_views (a : arena) ~row ~boundary =
  let rb = row * a.nr and sch = a.scheds.(row) in
  for i = 0 to a.nr - 1 do
    a.reg_vis.(rb + i) <- Sched.reg_view_resume sch i ~boundary a.regs.(rb + i)
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
  resume_views a ~row ~boundary;
  let sch = a.scheds.(row) in
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

(* Helpers of [states_equal], at top level so the per-step retirement
   and merge checks allocate no closures. *)
let rec eq_range (arr : Word.t array) b1 b2 n i =
  i >= n || (Word.equal arr.(b1 + i) arr.(b2 + i) && eq_range arr b1 b2 n (i + 1))

let rec fus_eq (a : arena) l r f =
  f >= a.nf
  || (a.fu_lat.((l * a.nf) + f) = a.fu_lat.((r * a.nf) + f)
      && eq_range a.fu_slots
           ((l * a.fu_row) + a.fu_off.(f))
           ((r * a.fu_row) + a.fu_off.(f))
           a.fu_lat.((r * a.nf) + f) 0
      && fus_eq a l r (f + 1))

(* Machine-state equality of rows [l] and [r] at a boundary, cheapest
   component first.  The pending set is empty there and the live
   driver set is the golden (step, wb) slot's for any row past its
   patches, so these components are the whole state. *)
let states_equal (a : arena) l r =
  eq_range a.regs (l * a.nr) (r * a.nr) a.nr 0
  && eq_range a.reg_vis (l * a.nr) (r * a.nr) a.nr 0
  && eq_range a.fu_out (l * a.nf) (r * a.nf) a.nf 0
  && eq_range a.visible (l * a.ns) (r * a.ns) a.ns 0
  && fus_eq a l r 0

let conflicts_equal (a : arena) l r =
  match (a.conflicts.(l), a.conflicts.(r)) with
  | [], [] -> true  (* the conflict-free fast path must not reach
                       [List.sort_uniq], which allocates its merge
                       closures even for empty input *)
  | cl, cr -> Snapshot.sort_conflicts cl = Snapshot.sort_conflicts cr

let is_dirty (a : arena) r = Bytes.get a.v_dirty r <> '\000'

(* Row [r] may stop and follow the earlier row [l] (both past their
   patches): equal states have equal futures, so every later trace
   cell, output write, conflict and early verdict of [r] would be
   [l]'s.  What can still tell them apart is retirement, which also
   reads the recorded past: a row with an observable delta never
   retires, so it may follow any equal row; a row without one may
   follow only a row that retires exactly when it would — one without
   a delta and with the same conflicts.  Row 0 is the golden row, so
   following it under the second clause is retirement itself. *)
let can_follow (a : arena) l r =
  states_equal a l r
  && (is_dirty a r || ((not (is_dirty a l)) && conflicts_equal a l r))

(* The hash of a row's registers and unit outputs, which is what tells
   running variants apart; [states_equal] decides.  Leaving the sinks
   out of the hash measured 2-3% faster on the benchmark's chains. *)
let rec mix (arr : Word.t array) base n i h =
  if i >= n then h else mix arr base n (i + 1) ((h * 31) + arr.(base + i))

let state_hash (a : arena) r =
  mix a.fu_out (r * a.nf) a.nf 0 (mix a.regs (r * a.nr) a.nr 0 17)

let home (a : arena) h = ((h * 0x2545F4914F6CDD1D) lsr 17) land a.tab_mask

let rec insert (a : arena) r h i =
  if a.tab_gen.(i) <> a.gen then begin
    a.tab_gen.(i) <- a.gen;
    a.tab_row.(i) <- r;
    a.tab_hash.(i) <- h
  end
  else insert a r h ((i + 1) land a.tab_mask)

(* The first row in the table [r] may follow, or -1.  Row 0 goes in
   first, so a row equal to the golden row finds it before any
   variant. *)
let rec leader (a : arena) r h i =
  if a.tab_gen.(i) <> a.gen then -1
  else
    let l = a.tab_row.(i) in
    if a.tab_hash.(i) = h && can_follow a l r then l
    else leader a r h ((i + 1) land a.tab_mask)

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

(* Row [r] is past its patches at boundary [step]: stop it if an
   earlier row already stands where it does.  Following row 0 without
   an observable delta is retirement; any other follow is a merge,
   settled after the loop ([resolve]). *)
let stop_if_equal (a : arena) r ~step =
  if not a.golden_in then begin
    let h0 = state_hash a 0 in
    insert a 0 h0 (home a h0);
    a.golden_in <- true
  end;
  let h = state_hash a r in
  let i = home a h in
  let l = leader a r h i in
  if l < 0 then insert a r h i
  else begin
    a.v_lead.(r) <- l;
    a.v_at.(r) <- step;
    a.v_state.(r) <-
      (if l = 0 && not (is_dirty a r) then step else st_following)
  end

let run_arena (a : arena) k =
  let cs = a.cs in
  for step = 1 to cs do
    a.gen <- a.gen + 1;
    a.golden_in <- false;
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
          if step < cs && step >= a.v_settle.(r) && step >= a.v_retire.(r)
          then stop_if_equal a r ~step
        end
      end
    done
  done

(* Append to row [dst], stopped at boundary [from], row [src]'s trace
   cells, output writes and conflicts of the steps after [from].  Lists
   of conflicts hold the latest first, so [src]'s later ones are a
   prefix of its list. *)
let copy_suffix (a : arena) ~src ~dst ~from =
  for i = 0 to a.nr - 1 do
    Array.blit a.traces (((src * a.nr) + i) * a.cs + from) a.traces
      (((dst * a.nr) + i) * a.cs + from)
      (a.cs - from)
  done;
  for o = 0 to a.np - 1 do
    let sb = ((src * a.np) + o) * a.cs and db = ((dst * a.np) + o) * a.cs in
    let sn = a.out_n.((src * a.np) + o) and dn = a.out_n.((dst * a.np) + o) in
    let first = ref sn in
    while !first > 0 && a.out_steps.(sb + !first - 1) > from do
      decr first
    done;
    let n = sn - !first in
    Array.blit a.out_steps (sb + !first) a.out_steps (db + dn) n;
    Array.blit a.out_vals (sb + !first) a.out_vals (db + dn) n;
    a.out_n.((dst * a.np) + o) <- dn + n
  done;
  let rec later = function
    | ((s, _, _) as c) :: rest when s > from -> c :: later rest
    | _ -> a.conflicts.(dst)
  in
  a.conflicts.(dst) <- later a.conflicts.(src)

(* Make a stopped row's arena row its whole observation: its own steps
   up to where it stopped, then its leader's (completed first).  Rows
   that stepped to the end are complete already, row 0 included. *)
let rec complete (a : arena) r =
  let l = a.v_lead.(r) in
  if l >= 0 && Bytes.get a.v_full r = '\000' then begin
    complete a l;
    copy_suffix a ~src:l ~dst:r ~from:a.v_at.(r);
    Bytes.set a.v_full r '\001'
  end

(* Settle every merged row from its leader, in row order, so a leader
   is settled before its followers: a follower inherits a detected
   leader's verdict and a retired leader's retirement when it has no
   observable delta of its own — exactly what it would have reached
   stepping on, since its future is the leader's — and otherwise
   finishes with its own prefix and the leader's suffix. *)
let resolve (a : arena) k =
  for r = 1 to k do
    if a.v_state.(r) = st_following then begin
      let l = a.v_lead.(r) in
      let ls = a.v_state.(l) in
      if ls = st_detected then begin
        a.v_found.(r) <- a.v_found.(l);
        a.v_state.(r) <- st_detected
      end
      else if ls >= 0 && not (is_dirty a r) then a.v_state.(r) <- ls
      else begin
        complete a r;
        a.v_state.(r) <- st_running
      end
    end
  done

let golden_with (plan : plan) specs =
  let a, k = bind plan specs in
  run_arena a k;
  (* control steps each row executed, read before [resolve] rewrites
     the states of merged rows *)
  let steps r =
    let s = a.v_state.(r) in
    if s = st_waiting then 0
    else if s = st_running then a.cs - a.v_join.(r)
    else if s = st_detected then
      let t, _, _ = a.v_found.(r) in
      t - a.v_join.(r)
    else a.v_at.(r) - a.v_join.(r)
  in
  let steps = Array.init (k + 1) steps in
  resolve a k;
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
              spec.join;
          merged =
            a.v_lead.(r) > 0 || (a.v_lead.(r) = 0 && is_dirty a r);
          steps = steps.(r) })
      specs
  in
  (observation a 0, results)

let run_with plan specs = snd (golden_with plan specs)

(* ---- the golden row alone: checkpoints and resumes -------------- *)

(* Everything a K = 0 binding returns is copied out of the arena
   ([observation], [capture]), and a [Finished] verdict of a batch is
   an [observation] too: no result outlives the next binding of this
   domain's arena by aliasing it.  Campaigns rely on that — a pool
   domain captures a checkpoint on the arena that has just served its
   chunk, while the chunk's results are still being classified. *)

(* Step row 0 through the control steps after boundary [from] up to
   and including [upto]. *)
let step_golden (a : arena) ~from ~upto =
  for step = from + 1 to upto do
    exec_row a a.scheds.(0) ~row:0 ~step
  done

(* Row 0's output writes through [step] as the single chronological
   list a snapshot holds: per step, ports in declaration order. *)
let out_writes_upto (a : arena) (m : Model.t) ~step =
  let cursor = Array.make a.np 0 in
  let acc = ref [] in
  for s = 1 to step do
    List.iteri
      (fun o name ->
        let k = cursor.(o) in
        if k < a.out_n.(o) && a.out_steps.((o * a.cs) + k) = s then begin
          acc := (name, (s, a.out_vals.((o * a.cs) + k))) :: !acc;
          cursor.(o) <- k + 1
        end)
      m.Model.outputs
  done;
  List.rev !acc

let capture (a : arena) (m : Model.t) ~digest ~step =
  { Snapshot.model_name = m.Model.name;
    digest;
    step;
    regs =
      List.mapi (fun i (r : Model.register) -> (r.reg_name, a.regs.(i)))
        m.Model.registers;
    fu_out =
      List.mapi (fun f (u : Model.fu) -> (u.fu_name, a.fu_out.(f))) m.Model.fus;
    fu_slots =
      List.mapi
        (fun f (u : Model.fu) ->
          (u.fu_name, Array.sub a.fu_slots a.fu_off.(f) a.fu_lat.(f)))
        m.Model.fus;
    trace =
      List.mapi
        (fun i (r : Model.register) ->
          (r.reg_name, Array.sub a.traces (i * a.cs) step))
        m.Model.registers;
    out_writes = out_writes_upto a m ~step;
    conflicts = Snapshot.sort_conflicts a.conflicts.(0) }

let snapshots_at (plan : plan) ~steps =
  let m = plan.pmodel in
  List.iter
    (fun s ->
      if s < 0 || s > m.Model.cs_max then
        invalid_arg
          (Printf.sprintf "Batch.snapshots_at: step %d outside [0, %d]" s
             m.Model.cs_max))
    steps;
  let digest = Snapshot.digest_of_model m in
  let a, _ = bind plan [] in
  let at = ref 0 in
  List.map
    (fun step ->
      step_golden a ~from:!at ~upto:step;
      at := step;
      capture a m ~digest ~step)
    (List.sort_uniq Int.compare steps)

(* Install a validated snapshot into the freshly bound row 0 — the
   arena's live and pending sets start empty, as at any boundary of an
   uninjected run — and step on from its boundary. *)
let resume (plan : plan) ~(from : Snapshot.t) =
  let m = plan.pmodel in
  Snapshot.validate_exn m from;
  let a, _ = bind plan [] in
  List.iteri (fun i (_, v) -> a.regs.(i) <- v) from.Snapshot.regs;
  resume_views a ~row:0 ~boundary:from.Snapshot.step;
  List.iteri (fun f (_, v) -> a.fu_out.(f) <- v) from.Snapshot.fu_out;
  List.iteri
    (fun f (_, slots) ->
      Array.blit slots 0 a.fu_slots a.fu_off.(f) (Array.length slots))
    from.Snapshot.fu_slots;
  List.iteri
    (fun i (_, tr) -> Array.blit tr 0 a.traces (i * a.cs) (Array.length tr))
    from.Snapshot.trace;
  List.iter
    (fun (name, (s, v)) ->
      (* validation admits declared ports only, once per step *)
      match List.find_index (String.equal name) m.Model.outputs with
      | None -> ()
      | Some o ->
        let n = a.out_n.(o) in
        a.out_steps.((o * a.cs) + n) <- s;
        a.out_vals.((o * a.cs) + n) <- v;
        a.out_n.(o) <- n + 1)
    from.Snapshot.out_writes;
  a.conflicts.(0) <- List.rev from.Snapshot.conflicts;
  step_golden a ~from:from.Snapshot.step ~upto:a.cs;
  observation a 0

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
