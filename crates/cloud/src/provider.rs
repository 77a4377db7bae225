//! The cloud-provider facade: one object that owns the clock, catalog,
//! IAM roles, VPCs, instances, notebooks, and the billing ledger, and
//! enforces the course's governance rules (IAM, budgets, GPU quotas) on
//! every control-plane call.

use crate::billing::{BillingLedger, UsageRecord};
use crate::clock::SimClock;
use crate::ec2::{Instance, InstanceId, InstanceState};
use crate::iam::{Action, Policy, Role};
use crate::pricing::InstanceCatalog;
use crate::sagemaker::NotebookInstance;
use crate::vpc::{SubnetId, Vpc, VpcError, VpcId};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// AWS regions the simulator knows about. The paper pins everything to
/// US East (N. Virginia) "for efficient management and monitoring".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    UsEast1,
    UsWest2,
}

impl Region {
    /// API name of the region.
    pub fn as_str(&self) -> &'static str {
        match self {
            Region::UsEast1 => "us-east-1",
            Region::UsWest2 => "us-west-2",
        }
    }
}

/// A (vpc, subnet) handle returned by subnet creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubnetRef {
    pub vpc: VpcId,
    pub subnet: SubnetId,
}

/// Errors from provider control-plane calls.
#[derive(Debug, Clone, PartialEq)]
pub enum CloudError {
    /// IAM evaluation denied the call.
    AccessDenied { role: String, action: &'static str },
    /// The principal's budget cap is exhausted.
    BudgetExceeded { role: String, spent: f64, cap: f64 },
    /// The principal would exceed the concurrent-GPU quota.
    GpuQuotaExceeded {
        role: String,
        in_use: u32,
        quota: u32,
    },
    /// Unknown instance type, role, VPC, subnet, or instance.
    NotFound(String),
    /// A role with this name already exists.
    RoleExists(String),
    /// VPC/subnet configuration error.
    Vpc(VpcError),
    /// Illegal instance state transition.
    Lifecycle(String),
}

impl std::fmt::Display for CloudError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CloudError::AccessDenied { role, action } => {
                write!(f, "access denied: role {role} may not {action}")
            }
            CloudError::BudgetExceeded { role, spent, cap } => {
                write!(
                    f,
                    "budget exceeded for {role}: spent ${spent:.2} of ${cap:.2}"
                )
            }
            CloudError::GpuQuotaExceeded {
                role,
                in_use,
                quota,
            } => {
                write!(
                    f,
                    "GPU quota exceeded for {role}: {in_use} in use, quota {quota}"
                )
            }
            CloudError::NotFound(what) => write!(f, "not found: {what}"),
            CloudError::RoleExists(name) => write!(f, "role already exists: {name}"),
            CloudError::Vpc(e) => write!(f, "vpc error: {e}"),
            CloudError::Lifecycle(e) => write!(f, "lifecycle error: {e}"),
        }
    }
}

impl std::error::Error for CloudError {}

impl From<VpcError> for CloudError {
    fn from(e: VpcError) -> Self {
        CloudError::Vpc(e)
    }
}

/// The simulated cloud.
pub struct CloudProvider {
    region: Region,
    clock: SimClock,
    catalog: InstanceCatalog,
    billing: BillingLedger,
    /// Concurrent GPUs allowed per principal (paper: "up to 3").
    gpu_quota: u32,
    roles: RwLock<HashMap<String, Role>>,
    vpcs: RwLock<HashMap<VpcId, Vpc>>,
    instances: RwLock<HashMap<InstanceId, Instance>>,
    notebooks: RwLock<HashMap<u64, NotebookInstance>>,
    /// Activity tags (lab/assignment names) keyed by instance, kept outside
    /// `Instance` so the ec2 module stays a pure state machine.
    activities: RwLock<HashMap<InstanceId, String>>,
    next_id: AtomicU64,
}

impl CloudProvider {
    /// A provider for `region` with the default catalog and a 3-GPU quota.
    pub fn new(region: Region) -> Self {
        Self {
            region,
            clock: SimClock::new(),
            catalog: InstanceCatalog::us_east_1(),
            billing: BillingLedger::new(),
            gpu_quota: 3,
            roles: RwLock::new(HashMap::new()),
            vpcs: RwLock::new(HashMap::new()),
            instances: RwLock::new(HashMap::new()),
            notebooks: RwLock::new(HashMap::new()),
            activities: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// The simulated clock (advance it to make time pass).
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The region this provider serves.
    pub fn region(&self) -> Region {
        self.region
    }

    /// The billing ledger.
    pub fn billing(&self) -> &BillingLedger {
        &self.billing
    }

    /// The instance-type catalog.
    pub fn catalog(&self) -> &InstanceCatalog {
        &self.catalog
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    // ------------------------------------------------------------------
    // IAM
    // ------------------------------------------------------------------

    /// Creates a student role with the standard lab policy and a budget cap.
    pub fn create_student_role(&self, name: &str, budget_usd: f64) -> Result<String, CloudError> {
        let mut roles = self.roles.write();
        if roles.contains_key(name) {
            return Err(CloudError::RoleExists(name.to_owned()));
        }
        roles.insert(
            name.to_owned(),
            Role::new(name, vec![Policy::student_lab_policy()]),
        );
        self.billing.set_budget(name, budget_usd);
        Ok(name.to_owned())
    }

    /// Creates an unrestricted instructor/admin role.
    pub fn create_admin_role(&self, name: &str) -> Result<String, CloudError> {
        let mut roles = self.roles.write();
        if roles.contains_key(name) {
            return Err(CloudError::RoleExists(name.to_owned()));
        }
        roles.insert(
            name.to_owned(),
            Role::new(name, vec![Policy::admin_policy()]),
        );
        Ok(name.to_owned())
    }

    fn authorize(&self, role: &str, action: Action, resource: &str) -> Result<(), CloudError> {
        let roles = self.roles.read();
        let r = roles
            .get(role)
            .ok_or_else(|| CloudError::NotFound(format!("role {role}")))?;
        if r.is_allowed(action, resource) {
            Ok(())
        } else {
            Err(CloudError::AccessDenied {
                role: role.to_owned(),
                action: action.as_str(),
            })
        }
    }

    // ------------------------------------------------------------------
    // Networking
    // ------------------------------------------------------------------

    /// Creates a VPC over a CIDR block.
    pub fn create_vpc(&self, name: &str, cidr: &str) -> Result<VpcId, CloudError> {
        let id = VpcId(self.fresh_id());
        let vpc = Vpc::new(id, name, cidr)?;
        self.vpcs.write().insert(id, vpc);
        Ok(id)
    }

    /// Carves a subnet out of an existing VPC.
    pub fn create_subnet(
        &self,
        vpc: &VpcId,
        name: &str,
        cidr: &str,
    ) -> Result<SubnetRef, CloudError> {
        let mut vpcs = self.vpcs.write();
        let v = vpcs
            .get_mut(vpc)
            .ok_or_else(|| CloudError::NotFound(format!("vpc {vpc:?}")))?;
        let sid = SubnetId(self.fresh_id());
        v.create_subnet(sid, name, cidr)?;
        Ok(SubnetRef {
            vpc: *vpc,
            subnet: sid,
        })
    }

    /// Whether two running instances can reach each other (same VPC).
    pub fn can_reach(&self, a: &InstanceId, b: &InstanceId) -> Result<bool, CloudError> {
        let instances = self.instances.read();
        let ia = instances
            .get(a)
            .ok_or_else(|| CloudError::NotFound(format!("instance {a}")))?;
        let ib = instances
            .get(b)
            .ok_or_else(|| CloudError::NotFound(format!("instance {b}")))?;
        if ia.vpc != ib.vpc {
            return Ok(false);
        }
        let vpcs = self.vpcs.read();
        let v = vpcs
            .get(&ia.vpc)
            .ok_or_else(|| CloudError::NotFound(format!("vpc {:?}", ia.vpc)))?;
        Ok(v.can_reach(ia.private_ip, ib.private_ip))
    }

    // ------------------------------------------------------------------
    // EC2
    // ------------------------------------------------------------------

    fn gpus_in_use(&self, role: &str) -> u32 {
        self.instances
            .read()
            .values()
            .filter(|i| i.owner == role && i.is_running())
            .map(|i| i.instance_type.gpus)
            .sum()
    }

    /// Launches an instance with an activity tag (lab/assignment name).
    pub fn run_instance_tagged(
        &self,
        role: &str,
        type_name: &str,
        subnet: &SubnetRef,
        activity: &str,
    ) -> Result<InstanceId, CloudError> {
        self.authorize(role, Action::RunInstances, &format!("{role}/*"))?;
        if !self.billing.within_budget(role) {
            let cap = self.billing.budget_of(role).unwrap_or(0.0);
            return Err(CloudError::BudgetExceeded {
                role: role.to_owned(),
                spent: self.billing.cost_for(role),
                cap,
            });
        }
        let ty = self
            .catalog
            .get(type_name)
            .ok_or_else(|| CloudError::NotFound(format!("instance type {type_name}")))?
            .clone();
        if ty.gpus > 0 {
            let in_use = self.gpus_in_use(role);
            if in_use + ty.gpus > self.gpu_quota {
                return Err(CloudError::GpuQuotaExceeded {
                    role: role.to_owned(),
                    in_use,
                    quota: self.gpu_quota,
                });
            }
        }
        let ip = {
            let mut vpcs = self.vpcs.write();
            let v = vpcs
                .get_mut(&subnet.vpc)
                .ok_or_else(|| CloudError::NotFound(format!("vpc {:?}", subnet.vpc)))?;
            let s = v
                .subnet_mut(subnet.subnet)
                .ok_or_else(|| CloudError::NotFound(format!("subnet {:?}", subnet.subnet)))?;
            s.allocate_ip()?
        };
        let id = InstanceId(self.fresh_id());
        let mut inst = Instance::launch(id, role, ty, subnet.vpc, subnet.subnet, ip, &self.clock);
        // Remember the activity tag by smuggling it through the owner-level
        // records at termination time; store on the instance meanwhile.
        inst.touch(&self.clock);
        self.instances.write().insert(id, inst);
        self.activities.write().insert(id, activity.to_owned());
        Ok(id)
    }

    /// Launches with the default `"untagged"` activity.
    pub fn run_instance(
        &self,
        role: &str,
        type_name: &str,
        subnet: &SubnetRef,
    ) -> Result<InstanceId, CloudError> {
        self.run_instance_tagged(role, type_name, subnet, "untagged")
    }

    /// Terminates an instance and finalizes its usage record.
    pub fn terminate_instance(&self, role: &str, id: &InstanceId) -> Result<(), CloudError> {
        let mut instances = self.instances.write();
        let inst = instances
            .get_mut(id)
            .ok_or_else(|| CloudError::NotFound(format!("instance {id}")))?;
        self.authorize(role, Action::TerminateInstances, &inst.resource_name())?;
        inst.terminate(&self.clock)
            .map_err(|e| CloudError::Lifecycle(e.to_string()))?;
        let activity = self
            .activities
            .write()
            .remove(id)
            .unwrap_or_else(|| "untagged".to_owned());
        self.billing.record(UsageRecord {
            principal: inst.owner.clone(),
            instance_type: inst.instance_type.name.clone(),
            gpus: inst.instance_type.gpus,
            secs: inst.billable_secs(&self.clock),
            usd: inst.accrued_cost(&self.clock),
            activity,
        });
        Ok(())
    }

    /// Stops an instance (billing pauses; no ledger record yet).
    pub fn stop_instance(&self, role: &str, id: &InstanceId) -> Result<(), CloudError> {
        let mut instances = self.instances.write();
        let inst = instances
            .get_mut(id)
            .ok_or_else(|| CloudError::NotFound(format!("instance {id}")))?;
        self.authorize(role, Action::StopInstances, &inst.resource_name())?;
        inst.stop(&self.clock)
            .map_err(|e| CloudError::Lifecycle(e.to_string()))
    }

    /// Records lab activity on an instance (resets its idle timer).
    pub fn touch_instance(&self, id: &InstanceId) -> Result<(), CloudError> {
        let mut instances = self.instances.write();
        let inst = instances
            .get_mut(id)
            .ok_or_else(|| CloudError::NotFound(format!("instance {id}")))?;
        inst.touch(&self.clock);
        Ok(())
    }

    /// Snapshot of one instance.
    pub fn describe_instance(&self, id: &InstanceId) -> Result<Instance, CloudError> {
        self.instances
            .read()
            .get(id)
            .cloned()
            .ok_or_else(|| CloudError::NotFound(format!("instance {id}")))
    }

    /// All instances currently in `Running`, with their idle seconds.
    pub fn list_running(&self) -> Vec<(InstanceId, u64)> {
        let mut v: Vec<(InstanceId, u64)> = self
            .instances
            .read()
            .values()
            .filter(|i| i.state == InstanceState::Running)
            .map(|i| (i.id, i.idle_secs(&self.clock)))
            .collect();
        v.sort_by_key(|(id, _)| *id);
        v
    }

    /// Administrative terminate used by the idle reaper: bypasses student
    /// IAM but still writes the usage record against the owner.
    pub fn admin_terminate(&self, id: &InstanceId) -> Result<(), CloudError> {
        let mut instances = self.instances.write();
        let inst = instances
            .get_mut(id)
            .ok_or_else(|| CloudError::NotFound(format!("instance {id}")))?;
        inst.terminate(&self.clock)
            .map_err(|e| CloudError::Lifecycle(e.to_string()))?;
        let activity = self
            .activities
            .write()
            .remove(id)
            .unwrap_or_else(|| "untagged".to_owned());
        self.billing.record(UsageRecord {
            principal: inst.owner.clone(),
            instance_type: inst.instance_type.name.clone(),
            gpus: inst.instance_type.gpus,
            secs: inst.billable_secs(&self.clock),
            usd: inst.accrued_cost(&self.clock),
            activity,
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // SageMaker
    // ------------------------------------------------------------------

    /// Creates a notebook instance for a role.
    pub fn create_notebook(
        &self,
        role: &str,
        name: &str,
        type_name: &str,
    ) -> Result<u64, CloudError> {
        self.authorize(role, Action::CreateNotebook, &format!("{role}/*"))?;
        let ty = self
            .catalog
            .get(type_name)
            .ok_or_else(|| CloudError::NotFound(format!("instance type {type_name}")))?
            .clone();
        let id = self.fresh_id();
        let nb = NotebookInstance::create(id, name, role, ty, &self.clock);
        self.notebooks.write().insert(id, nb);
        Ok(id)
    }

    /// Deletes a notebook and finalizes its usage record.
    pub fn delete_notebook(&self, role: &str, id: u64) -> Result<(), CloudError> {
        let mut notebooks = self.notebooks.write();
        let nb = notebooks
            .get_mut(&id)
            .ok_or_else(|| CloudError::NotFound(format!("notebook {id}")))?;
        self.authorize(
            role,
            Action::StopNotebook,
            &format!("{}/{}", nb.owner, nb.name),
        )?;
        nb.delete(&self.clock)
            .map_err(|e| CloudError::Lifecycle(e.to_string()))?;
        self.billing.record(UsageRecord {
            principal: nb.owner.clone(),
            instance_type: nb.instance_type.name.clone(),
            gpus: nb.instance_type.gpus,
            secs: nb.billable_secs(&self.clock),
            usd: nb.accrued_cost(&self.clock),
            activity: "notebook".to_owned(),
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (CloudProvider, String, SubnetRef) {
        let cloud = CloudProvider::new(Region::UsEast1);
        let student = cloud.create_student_role("student-01", 100.0).unwrap();
        let vpc = cloud.create_vpc("course", "10.0.0.0/16").unwrap();
        let subnet = cloud.create_subnet(&vpc, "lab", "10.0.1.0/24").unwrap();
        (cloud, student, subnet)
    }

    #[test]
    fn launch_run_terminate_bills_correctly() {
        let (cloud, student, subnet) = setup();
        let id = cloud
            .run_instance_tagged(&student, "g4dn.xlarge", &subnet, "lab-1")
            .unwrap();
        cloud.clock().advance_hours(3);
        cloud.terminate_instance(&student, &id).unwrap();
        let cost = cloud.billing().cost_for(&student);
        assert!((cost - 3.0 * 0.526).abs() < 1e-9, "cost {cost}");
        assert!((cloud.billing().gpu_hours_for(&student) - 3.0).abs() < 1e-9);
        let by = cloud.billing().cost_by_activity();
        assert!(by.contains_key("lab-1"));
    }

    #[test]
    fn unknown_role_or_type_rejected() {
        let (cloud, _, subnet) = setup();
        assert!(matches!(
            cloud.run_instance("ghost", "g4dn.xlarge", &subnet),
            Err(CloudError::NotFound(_))
        ));
        assert!(matches!(
            cloud.run_instance("student-01", "h100.mega", &subnet),
            Err(CloudError::NotFound(_))
        ));
    }

    #[test]
    fn duplicate_role_rejected() {
        let (cloud, _, _) = setup();
        assert!(matches!(
            cloud.create_student_role("student-01", 50.0),
            Err(CloudError::RoleExists(_))
        ));
    }

    #[test]
    fn gpu_quota_enforced_at_three() {
        let (cloud, student, subnet) = setup();
        for _ in 0..3 {
            cloud
                .run_instance(&student, "g4dn.xlarge", &subnet)
                .unwrap();
        }
        let err = cloud
            .run_instance(&student, "g4dn.xlarge", &subnet)
            .unwrap_err();
        assert!(matches!(
            err,
            CloudError::GpuQuotaExceeded {
                in_use: 3,
                quota: 3,
                ..
            }
        ));
        // A 4-GPU type can never fit under the default quota.
        let err = cloud
            .run_instance(&student, "g4dn.12xlarge", &subnet)
            .unwrap_err();
        assert!(matches!(err, CloudError::GpuQuotaExceeded { .. }));
    }

    #[test]
    fn quota_frees_after_termination() {
        let (cloud, student, subnet) = setup();
        let ids: Vec<_> = (0..3)
            .map(|_| {
                cloud
                    .run_instance(&student, "g4dn.xlarge", &subnet)
                    .unwrap()
            })
            .collect();
        cloud.terminate_instance(&student, &ids[0]).unwrap();
        assert!(cloud.run_instance(&student, "g4dn.xlarge", &subnet).is_ok());
    }

    #[test]
    fn budget_cap_blocks_new_launches() {
        let (cloud, _, subnet) = setup();
        let poor = cloud.create_student_role("student-02", 0.50).unwrap();
        let id = cloud.run_instance(&poor, "g4dn.xlarge", &subnet).unwrap();
        cloud.clock().advance_hours(1); // $0.526 > $0.50
        cloud.terminate_instance(&poor, &id).unwrap();
        let err = cloud
            .run_instance(&poor, "g4dn.xlarge", &subnet)
            .unwrap_err();
        assert!(matches!(err, CloudError::BudgetExceeded { .. }));
    }

    #[test]
    fn student_cannot_terminate_shared_infrastructure() {
        let (cloud, student, subnet) = setup();
        // Course-owned shared infra runs under the "shared" principal; the
        // student lab policy explicitly denies ec2:TerminateInstances on
        // shared/* resources.
        let shared = cloud.create_admin_role("shared").unwrap();
        let head = cloud.run_instance(&shared, "m5.xlarge", &subnet).unwrap();
        let err = cloud.terminate_instance(&student, &head).unwrap_err();
        assert!(matches!(err, CloudError::AccessDenied { .. }));
        // The owning admin role can.
        assert!(cloud.terminate_instance(&shared, &head).is_ok());
    }

    #[test]
    fn same_vpc_instances_reach_each_other() {
        let (cloud, student, subnet) = setup();
        let a = cloud
            .run_instance(&student, "g4dn.xlarge", &subnet)
            .unwrap();
        let b = cloud
            .run_instance(&student, "g4dn.xlarge", &subnet)
            .unwrap();
        assert!(cloud.can_reach(&a, &b).unwrap());
    }

    #[test]
    fn cross_vpc_instances_cannot_reach() {
        let (cloud, student, subnet) = setup();
        let other_vpc = cloud.create_vpc("other", "172.16.0.0/16").unwrap();
        let other_subnet = cloud
            .create_subnet(&other_vpc, "x", "172.16.1.0/24")
            .unwrap();
        let a = cloud
            .run_instance(&student, "g4dn.xlarge", &subnet)
            .unwrap();
        let b = cloud
            .run_instance(&student, "g4dn.xlarge", &other_subnet)
            .unwrap();
        assert!(!cloud.can_reach(&a, &b).unwrap());
    }

    #[test]
    fn notebooks_create_bill_delete() {
        let (cloud, student, _) = setup();
        let nb = cloud
            .create_notebook(&student, "jl", "ml.t3.medium")
            .unwrap();
        cloud.clock().advance_hours(10);
        cloud.delete_notebook(&student, nb).unwrap();
        let cost = cloud.billing().cost_for(&student);
        assert!((cost - 0.5).abs() < 1e-9); // 10 h × $0.05
        assert_eq!(cloud.billing().gpu_hours_for(&student), 0.0);
    }

    #[test]
    fn subnet_misconfiguration_surfaces_as_vpc_error() {
        let (cloud, _, _) = setup();
        let vpc = cloud.create_vpc("v2", "10.1.0.0/16").unwrap();
        let err = cloud
            .create_subnet(&vpc, "bad", "192.168.0.0/24")
            .unwrap_err();
        assert!(matches!(
            err,
            CloudError::Vpc(VpcError::SubnetOutsideVpc { .. })
        ));
    }

    #[test]
    fn list_running_tracks_idleness() {
        let (cloud, student, subnet) = setup();
        let a = cloud
            .run_instance(&student, "g4dn.xlarge", &subnet)
            .unwrap();
        cloud.clock().advance_secs(100);
        let running = cloud.list_running();
        assert_eq!(running, vec![(a, 100)]);
        cloud.touch_instance(&a).unwrap();
        assert_eq!(cloud.list_running(), vec![(a, 0)]);
    }

    #[test]
    fn stop_pauses_billing_through_provider() {
        let (cloud, student, subnet) = setup();
        let id = cloud
            .run_instance(&student, "g4dn.xlarge", &subnet)
            .unwrap();
        cloud.clock().advance_hours(1);
        cloud.stop_instance(&student, &id).unwrap();
        cloud.clock().advance_hours(10);
        cloud.terminate_instance(&student, &id).unwrap();
        assert!((cloud.billing().cost_for(&student) - 0.526).abs() < 1e-9);
    }
}
